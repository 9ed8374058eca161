// Package uncertainty implements the explicit uncertainty representation
// and principled evidence combination that §4.2 of Furche et al. demands:
// "it is important that uncertainty is represented explicitly and reasoned
// with systematically, so that well informed decisions can build on a sound
// understanding of the available evidence."
//
// The package offers three combination rules over binary hypotheses
// ("this value/match/duplicate is correct"):
//
//   - Bayesian updating with per-source reliabilities,
//   - linear opinion pooling (reliability-weighted averaging), and
//   - Dempster-Shafer mass combination on the frame {true, false},
//     which distinguishes uncertainty (mass on the whole frame) from
//     balanced conflict.
//
// plus calibration utilities (Brier score) used by experiment E9.
package uncertainty

import (
	"errors"
	"math"
)

// Evidence is one observation about a binary hypothesis from a source with
// a given reliability: the probability the source reports correctly.
// Supports reliabilities in (0,1); 0.5 is an uninformative source.
type Evidence struct {
	Supports    bool    // does the source assert the hypothesis?
	Reliability float64 // P(source correct), in (0,1)
}

// ErrNoEvidence is returned by combiners when called with nothing to
// combine.
var ErrNoEvidence = errors.New("uncertainty: no evidence")

// clampRel bounds reliability away from 0 and 1 so likelihood ratios stay
// finite; extreme inputs are treated as very strong rather than absolute.
func clampRel(r float64) float64 {
	const eps = 1e-6
	if r < eps {
		return eps
	}
	if r > 1-eps {
		return 1 - eps
	}
	return r
}

// BayesCombine updates the prior P(h) with independent evidence items and
// returns the posterior P(h | evidence). Each supporting observation from a
// source with reliability r multiplies the odds by r/(1-r); a contradicting
// observation divides them.
func BayesCombine(prior float64, ev []Evidence) (float64, error) {
	if len(ev) == 0 {
		return 0, ErrNoEvidence
	}
	prior = clampRel(prior)
	logOdds := math.Log(prior / (1 - prior))
	for _, e := range ev {
		r := clampRel(e.Reliability)
		lr := math.Log(r / (1 - r))
		if e.Supports {
			logOdds += lr
		} else {
			logOdds -= lr
		}
	}
	return 1 / (1 + math.Exp(-logOdds)), nil
}

// PoolCombine returns the reliability-weighted linear opinion pool: each
// source votes 1 (supports) or 0 (contradicts) weighted by how far its
// reliability is from uninformative (|r-0.5|·2).
func PoolCombine(ev []Evidence) (float64, error) {
	if len(ev) == 0 {
		return 0, ErrNoEvidence
	}
	num, den := 0.0, 0.0
	for _, e := range ev {
		w := math.Abs(clampRel(e.Reliability)-0.5) * 2
		if w == 0 {
			continue
		}
		vote := 0.0
		if e.Supports == (e.Reliability >= 0.5) {
			vote = 1 // an unreliable source contradicting is weak support
		}
		num += w * vote
		den += w
	}
	if den == 0 {
		return 0.5, nil
	}
	return num / den, nil
}

// Mass is a Dempster-Shafer mass assignment on the frame {T, F}: belief in
// true, belief in false, and the remainder on the whole frame (ignorance).
// T + F + U must equal 1 up to rounding.
type Mass struct {
	T, F, U float64
}

// NewMass builds a mass function from an evidence item: a source with
// reliability r asserting the hypothesis contributes mass r to T and 1-r to
// ignorance (not to F — absence of trust is not evidence of falsity).
func NewMass(e Evidence) Mass {
	r := clampRel(e.Reliability)
	if e.Supports {
		return Mass{T: r, U: 1 - r}
	}
	return Mass{F: r, U: 1 - r}
}

// Combine applies Dempster's rule of combination to two mass functions on
// {T, F}. The conflict mass K = a.T·b.F + a.F·b.T is renormalised away; the
// returned conflict value reports K for diagnostics. Total conflict (K=1)
// returns full ignorance.
func (a Mass) Combine(b Mass) (Mass, float64) {
	k := a.T*b.F + a.F*b.T
	if 1-k < 1e-12 {
		return Mass{U: 1}, k
	}
	t := a.T*b.T + a.T*b.U + a.U*b.T
	f := a.F*b.F + a.F*b.U + a.U*b.F
	u := a.U * b.U
	// Renormalise by the actual component sum rather than 1-k to keep the
	// mass exactly valid under floating-point rounding.
	sum := t + f + u
	if sum < 1e-300 {
		return Mass{U: 1}, k
	}
	return Mass{T: t / sum, F: f / sum, U: u / sum}, k
}

// DSCombine folds Dempster's rule over all evidence and returns the final
// mass plus the maximum pairwise-step conflict observed.
func DSCombine(ev []Evidence) (Mass, float64, error) {
	if len(ev) == 0 {
		return Mass{}, 0, ErrNoEvidence
	}
	m := NewMass(ev[0])
	maxK := 0.0
	for _, e := range ev[1:] {
		var k float64
		m, k = m.Combine(NewMass(e))
		if k > maxK {
			maxK = k
		}
	}
	return m, maxK, nil
}

// BrierScore measures calibration of probabilistic predictions against
// boolean outcomes: mean squared error of (p - outcome). Lower is better;
// 0.25 is the score of always predicting 0.5.
func BrierScore(preds []float64, outcomes []bool) (float64, error) {
	if len(preds) == 0 || len(preds) != len(outcomes) {
		return 0, errors.New("uncertainty: preds and outcomes must be same non-zero length")
	}
	sum := 0.0
	for i, p := range preds {
		o := 0.0
		if outcomes[i] {
			o = 1
		}
		sum += (p - o) * (p - o)
	}
	return sum / float64(len(preds)), nil
}
