// Package er implements entity resolution for the Data Integration
// component: q-gram blocking, feature-based pair scoring, transitive
// clustering, and Corleone-style rule refinement from feedback [20] — the
// matcher's weights and threshold are learned from labelled pairs supplied
// by users or simulated crowds, which is the pay-as-you-go loop of §2.4.
package er

import (
	"fmt"
	"slices"

	"repro/internal/dataset"
	"repro/internal/text"
)

// Pair is an unordered candidate record pair (I < J, row indices).
type Pair struct {
	I, J int
}

// FeatureNames lists the similarity features the matcher computes, in the
// order Features returns them.
var FeatureNames = []string{"key_equal", "name_sim", "secondary_sim", "numeric_sim"}

// Resolver scores candidate pairs with a weighted linear rule and clusters
// matches transitively. KeyColumn (e.g. "sku") provides exact-identity
// evidence; NameColumn fuzzy-text evidence; SecondaryColumn (e.g. "brand"
// or "city") categorical evidence; NumericColumn (e.g. "price") numeric
// closeness.
type Resolver struct {
	KeyColumn       string
	NameColumn      string
	SecondaryColumn string
	NumericColumn   string

	Weights   []float64 // aligned with FeatureNames
	Threshold float64   // minimum score to declare a match

	BlockGramSize int // q for blocking grams (default 3)
	MaxBlockSize  int // blocks larger than this are skipped (default 60)

	// prep is the prepared feature state (prep.go): built once per table by
	// Prepare (the resolve entry points call it), read-only during the
	// shard fan-out, ignored whenever the table or the configuration above
	// no longer matches it. carry and seeds are what the next Prepare
	// starts from: a predecessor's registries (Carry) and per-record
	// derivations computed where the records were produced (Seed).
	prep  *tableFeatures
	carry *registry
	seeds []*Derived
}

// NewResolver returns a resolver with sensible default weights for product
// records: exact key agreement is near-conclusive, name similarity is the
// main fuzzy signal.
func NewResolver(keyCol, nameCol, secondaryCol, numericCol string) *Resolver {
	return &Resolver{
		KeyColumn:       keyCol,
		NameColumn:      nameCol,
		SecondaryColumn: secondaryCol,
		NumericColumn:   numericCol,
		Weights:         []float64{0.55, 0.30, 0.10, 0.05},
		Threshold:       0.92,
		BlockGramSize:   3,
		MaxBlockSize:    60,
	}
}

// Missing marks a feature that could not be computed because a value was
// null on either side. Score excludes missing features instead of treating
// them as disagreement — a record without a SKU is not evidence against a
// match.
const Missing = -1.0

// Features computes the similarity feature vector for a record pair.
// Entries are in [0,1] or Missing.
func (r *Resolver) Features(t *dataset.Table, i, j int) []float64 {
	f := make([]float64, len(FeatureNames))
	var sc text.Scratch
	r.featuresInto(t, i, j, f, &sc)
	return f
}

// featuresInto is Features writing into a caller-owned vector with
// caller-owned similarity scratch — the allocation-free form the resolve
// hot loop drives. With prepared per-row state (prep.go) a pair touches
// no string machinery at all; without it the per-pair path runs, with
// the four column indices resolved once instead of once per field.
func (r *Resolver) featuresInto(t *dataset.Table, i, j int, f []float64, sc *text.Scratch) {
	f[0], f[1], f[2], f[3] = Missing, Missing, Missing, Missing
	if p := r.prep; p.valid(r, t) {
		// Equal ids are equal normalised strings: both sides were interned
		// by the one registry.
		a, b := p.rows[i], p.rows[j]
		if a.keyOK && b.keyOK {
			if a.keyBlock == b.keyBlock {
				f[0] = 1
			} else {
				f[0] = 0
			}
		}
		if a.nameOK && b.nameOK {
			f[1] = p.reg.nameSim(a.nameID, b.nameID, sc)
		}
		if a.secOK && b.secOK {
			if a.secID == b.secID {
				f[2] = 1
			} else {
				f[2] = p.reg.secSim(a.secID, b.secID, sc)
			}
		}
		if a.numOK && b.numOK {
			f[3] = numericSim(a.num, b.num)
		}
		return
	}
	schema := t.Schema()
	ki := colIndex(schema, r.KeyColumn)
	ni := colIndex(schema, r.NameColumn)
	si := colIndex(schema, r.SecondaryColumn)
	pi := colIndex(schema, r.NumericColumn)
	ra, rb := t.Row(i), t.Row(j)
	if ki >= 0 && !ra[ki].IsNull() && !rb[ki].IsNull() {
		if text.Normalize(ra[ki].String()) == text.Normalize(rb[ki].String()) {
			f[0] = 1
		} else {
			f[0] = 0
		}
	}
	if ni >= 0 && !ra[ni].IsNull() && !rb[ni].IsNull() {
		nsa, nsb := text.Normalize(ra[ni].String()), text.Normalize(rb[ni].String())
		jw := text.JaroWinkler(nsa, nsb)
		if jw < 0.5 {
			f[1] = jw
		} else {
			// Normalize is Tokenize rejoined on single spaces, so
			// Monge-Elkan over the normalized strings sees the exact
			// token lists the raw strings would tokenize to.
			f[1] = 0.5*jw + 0.5*text.MongeElkanSym(nsa, nsb)
		}
	}
	if si >= 0 && !ra[si].IsNull() && !rb[si].IsNull() {
		nva, nvb := text.Normalize(ra[si].String()), text.Normalize(rb[si].String())
		if nva == nvb {
			f[2] = 1
		} else {
			f[2] = text.JaroWinkler(nva, nvb)
		}
	}
	if pi >= 0 && ra[pi].IsNumeric() && rb[pi].IsNumeric() {
		f[3] = numericSim(ra[pi].FloatVal(), rb[pi].FloatVal())
	}
}

// numericSim is the relative-difference similarity both Features paths
// share: 1 at equality, linearly down to 0, Missing when the larger
// magnitude is zero (no meaningful denominator).
func numericSim(x, y float64) float64 {
	if x == y {
		return 1
	}
	den := x
	if y > x {
		den = y
	}
	if den == 0 {
		return Missing
	}
	d := (x - y) / den
	if d < 0 {
		d = -d
	}
	s := 1 - d
	if s < 0 {
		s = 0
	}
	return s
}

// Score combines a feature vector with the learned weights, renormalising
// over the features that are present (not Missing). A present-but-
// disagreeing key is a hard veto: records carrying distinct identifiers
// are distinct entities regardless of how similar their names look.
func (r *Resolver) Score(features []float64) float64 {
	if len(features) > 0 && features[0] == 0 {
		return 0
	}
	s, wsum := 0.0, 0.0
	for i, w := range r.Weights {
		if i < len(features) && features[i] >= 0 {
			s += w * features[i]
			wsum += w
		}
	}
	if wsum == 0 {
		return 0
	}
	return s / wsum
}

// CandidatePairs blocks the table on name q-grams (plus exact keys) and
// returns the deduplicated candidate pairs, sorted by (I, J). Blocking
// keeps the candidate set near-linear instead of quadratic; oversized
// blocks (stop-gram effects) are skipped. It is the block index's
// enumeration (replan.go) — the same one shard planning runs.
func (r *Resolver) CandidatePairs(t *dataset.Table) []Pair {
	return unpackPairs(buildBlockIndex(r.prepared(t)).pairs(r.MaxBlockSize))
}

// A candidate pair (I < J) packs into one int64 whose integer order is
// exactly the (I, J) lexical order: row indices are non-negative and well
// under 2³¹. Pair lists are kept packed wherever they are sorted, merged
// or searched — the specialized integer sort avoids the per-comparison
// function calls that made the generic sort ~15% of the tail's CPU.
func packPair(i, j int32) int64 { return int64(i)<<32 | int64(j) }

func unpackPair(v int64) Pair { return Pair{I: int(v >> 32), J: int(v & 0xffffffff)} }

func unpackPairs(packed []int64) []Pair {
	out := make([]Pair, len(packed))
	for i, v := range packed {
		out[i] = unpackPair(v)
	}
	return out
}

// sortDedup sorts packed pairs and removes duplicates in place; the
// resulting order is part of the determinism contract.
func sortDedup(packed []int64) []int64 {
	slices.Sort(packed)
	return slices.Compact(packed)
}

// Clustering is a partition of table rows into entities.
type Clustering struct {
	Assign []int // row -> cluster id (0..NumClusters-1)
	Num    int
}

// Clusters returns the row indices per cluster id.
func (c *Clustering) Clusters() [][]int {
	out := make([][]int, c.Num)
	for row, id := range c.Assign {
		out[id] = append(out[id], row)
	}
	return out
}

// Resolve blocks, scores and transitively clusters the table. Rows with a
// pair score >= Threshold are merged (union-find).
func (r *Resolver) Resolve(t *dataset.Table) (*Clustering, error) {
	if t.Len() == 0 {
		return &Clustering{Assign: nil, Num: 0}, nil
	}
	if r.NameColumn == "" && r.KeyColumn == "" {
		return nil, fmt.Errorf("er: resolver needs at least a key or name column")
	}
	r.Prepare(t)
	parent := make([]int, t.Len())
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	var sc text.Scratch
	f := make([]float64, len(FeatureNames))
	for _, p := range r.CandidatePairs(t) {
		r.featuresInto(t, p.I, p.J, f, &sc)
		if r.Score(f) >= r.Threshold {
			union(p.I, p.J)
		}
	}
	ids := map[int]int{}
	assign := make([]int, t.Len())
	for i := range assign {
		root := find(i)
		id, ok := ids[root]
		if !ok {
			id = len(ids)
			ids[root] = id
		}
		assign[i] = id
	}
	return &Clustering{Assign: assign, Num: len(ids)}, nil
}

// LabeledPair is duplicate/non-duplicate feedback on a record pair — the
// unit of crowd payment in Example 5.
type LabeledPair struct {
	Pair      Pair
	Duplicate bool
}

// Learn refines the matcher from labelled pairs: it grid-searches the
// decision threshold and rebalances feature weights by each feature's
// observed separation power (mean on duplicates minus mean on
// non-duplicates). Guardrails keep noisy feedback from destroying a
// working rule: refinement needs at least three labels of each class, and
// a fit whose training F1 stays below 0.5 is rejected (crowd noise, not
// signal). Returns the adopted training F1 (0 when nothing was adopted).
func (r *Resolver) Learn(t *dataset.Table, labels []LabeledPair) float64 {
	if len(labels) == 0 {
		return 0
	}
	posCount, negCount := 0, 0
	for _, l := range labels {
		if l.Duplicate {
			posCount++
		} else {
			negCount++
		}
	}
	if posCount < 3 || negCount < 3 {
		return 0
	}
	origWeights := append([]float64(nil), r.Weights...)
	origThreshold := r.Threshold
	// Baseline: how well does the current rule already classify the
	// labels? A refinement is adopted only if it beats this.
	origF1 := r.trainingF1(t, labels)
	// Feature separation → new weights.
	nFeat := len(FeatureNames)
	posMean := make([]float64, nFeat)
	negMean := make([]float64, nFeat)
	posN := make([]int, nFeat)
	negN := make([]int, nFeat)
	nPos, nNeg := 0, 0
	feats := make([][]float64, len(labels))
	for li, l := range labels {
		f := r.Features(t, l.Pair.I, l.Pair.J)
		feats[li] = f
		if l.Duplicate {
			nPos++
		} else {
			nNeg++
		}
		for i := range f {
			if f[i] < 0 {
				continue // Missing features carry no signal
			}
			if l.Duplicate {
				posMean[i] += f[i]
				posN[i]++
			} else {
				negMean[i] += f[i]
				negN[i]++
			}
		}
	}
	if nPos > 0 && nNeg > 0 {
		newW := make([]float64, nFeat)
		sum := 0.0
		for i := 0; i < nFeat; i++ {
			sep := 0.01
			if posN[i] > 0 && negN[i] > 0 {
				sep = posMean[i]/float64(posN[i]) - negMean[i]/float64(negN[i])
				if sep < 0.01 {
					sep = 0.01
				}
			}
			newW[i] = sep
			sum += sep
		}
		for i := range newW {
			newW[i] /= sum
		}
		r.Weights = newW
	}
	// Threshold grid search for best F1.
	bestTh, bestF1 := r.Threshold, -1.0
	for th := 0.20; th <= 0.95; th += 0.01 {
		tp, fp, fn := 0, 0, 0
		for li, l := range labels {
			pred := r.Score(feats[li]) >= th
			switch {
			case pred && l.Duplicate:
				tp++
			case pred && !l.Duplicate:
				fp++
			case !pred && l.Duplicate:
				fn++
			}
		}
		f1 := f1Score(tp, fp, fn)
		if f1 > bestF1 {
			bestF1, bestTh = f1, th
		}
	}
	if bestF1 < 0.5 || bestF1 <= origF1 {
		// The fit is garbage (label noise) or no better than the rule we
		// already have — reject it; feedback must never make things worse.
		r.Weights = origWeights
		r.Threshold = origThreshold
		return origF1
	}
	r.Threshold = bestTh
	return bestF1
}

// trainingF1 scores the resolver's current rule against labelled pairs.
func (r *Resolver) trainingF1(t *dataset.Table, labels []LabeledPair) float64 {
	tp, fp, fn := 0, 0, 0
	for _, l := range labels {
		pred := r.Score(r.Features(t, l.Pair.I, l.Pair.J)) >= r.Threshold
		switch {
		case pred && l.Duplicate:
			tp++
		case pred && !l.Duplicate:
			fp++
		case !pred && l.Duplicate:
			fn++
		}
	}
	return f1Score(tp, fp, fn)
}

func f1Score(tp, fp, fn int) float64 {
	if tp == 0 {
		return 0
	}
	p := float64(tp) / float64(tp+fp)
	rec := float64(tp) / float64(tp+fn)
	return 2 * p * rec / (p + rec)
}

// PairwiseMetrics scores a clustering against ground-truth entity IDs
// (truth[row] = entity id, "" rows are ignored): pairwise precision,
// recall and F1 over all row pairs that share a truth id.
func PairwiseMetrics(c *Clustering, truth []string) (p, r, f float64) {
	tp, fp, fn := 0, 0, 0
	n := len(truth)
	for i := 0; i < n; i++ {
		if truth[i] == "" {
			continue
		}
		for j := i + 1; j < n; j++ {
			if truth[j] == "" {
				continue
			}
			same := truth[i] == truth[j]
			pred := c.Assign[i] == c.Assign[j]
			switch {
			case same && pred:
				tp++
			case !same && pred:
				fp++
			case same && !pred:
				fn++
			}
		}
	}
	if tp+fp > 0 {
		p = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		r = float64(tp) / float64(tp+fn)
	}
	if p+r > 0 {
		f = 2 * p * r / (p + r)
	}
	return p, r, f
}
