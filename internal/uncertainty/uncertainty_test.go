package uncertainty

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBayesCombineBasics(t *testing.T) {
	if _, err := BayesCombine(0.5, nil); err == nil {
		t.Error("no evidence should error")
	}
	p, err := BayesCombine(0.5, []Evidence{{Supports: true, Reliability: 0.9}})
	if err != nil || math.Abs(p-0.9) > 1e-9 {
		t.Errorf("single 0.9 supporter from even prior = %f, want 0.9", p)
	}
	p, _ = BayesCombine(0.5, []Evidence{{true, 0.9}, {false, 0.9}})
	if math.Abs(p-0.5) > 1e-9 {
		t.Errorf("balanced evidence should return prior, got %f", p)
	}
	p, _ = BayesCombine(0.5, []Evidence{{true, 0.8}, {true, 0.8}, {true, 0.8}})
	if p <= 0.8 {
		t.Errorf("agreeing evidence should compound: %f", p)
	}
}

func TestBayesUninformativeSource(t *testing.T) {
	p, _ := BayesCombine(0.3, []Evidence{{true, 0.5}})
	if math.Abs(p-0.3) > 1e-9 {
		t.Errorf("r=0.5 source should not move prior: %f", p)
	}
}

func TestBayesExtremeReliabilityClamped(t *testing.T) {
	p, err := BayesCombine(0.5, []Evidence{{true, 1.0}, {false, 0.0}})
	if err != nil || math.IsNaN(p) || math.IsInf(p, 0) {
		t.Errorf("extreme reliabilities must stay finite: %f %v", p, err)
	}
}

func TestPoolCombine(t *testing.T) {
	if _, err := PoolCombine(nil); err == nil {
		t.Error("no evidence should error")
	}
	p, _ := PoolCombine([]Evidence{{true, 0.9}, {true, 0.9}})
	if p != 1 {
		t.Errorf("all reliable supporters should pool to 1, got %f", p)
	}
	p, _ = PoolCombine([]Evidence{{true, 0.9}, {false, 0.9}})
	if math.Abs(p-0.5) > 1e-9 {
		t.Errorf("balanced pool = %f, want 0.5", p)
	}
	p, _ = PoolCombine([]Evidence{{true, 0.5}})
	if p != 0.5 {
		t.Errorf("only-uninformative pool should be 0.5, got %f", p)
	}
}

// valid reports whether the mass function is non-negative and sums to ~1.
func valid(m Mass) bool {
	return m.T >= -1e-9 && m.F >= -1e-9 && m.U >= -1e-9 &&
		math.Abs(m.T+m.F+m.U-1) < 1e-6
}

func TestNewMass(t *testing.T) {
	m := NewMass(Evidence{true, 0.7})
	if math.Abs(m.T-0.7) > 1e-9 || m.F != 0 || math.Abs(m.U-0.3) > 1e-9 {
		t.Errorf("supporting mass = %+v", m)
	}
	m = NewMass(Evidence{false, 0.6})
	if m.T != 0 || math.Abs(m.F-0.6) > 1e-9 {
		t.Errorf("contradicting mass = %+v", m)
	}
	if !valid(m) {
		t.Error("mass should be valid")
	}
}

func TestDempsterCombination(t *testing.T) {
	a := NewMass(Evidence{true, 0.8})
	b := NewMass(Evidence{true, 0.7})
	c, k := a.Combine(b)
	if !valid(c) {
		t.Fatalf("combined mass invalid: %+v", c)
	}
	if k != 0 {
		t.Errorf("agreeing masses should have zero conflict, got %f", k)
	}
	if c.T <= a.T || c.T <= b.T {
		t.Error("agreement should increase belief")
	}
	// Conflict case.
	d, k2 := a.Combine(NewMass(Evidence{false, 0.7}))
	if k2 <= 0 {
		t.Error("opposing masses should conflict")
	}
	if !valid(d) {
		t.Errorf("conflicted mass invalid: %+v", d)
	}
	if d.T > 1-d.F {
		t.Error("belief (T) must not exceed plausibility (1-F)")
	}
}

func TestDSCombine(t *testing.T) {
	if _, _, err := DSCombine(nil); err == nil {
		t.Error("no evidence should error")
	}
	m, maxK, err := DSCombine([]Evidence{{true, 0.8}, {true, 0.6}, {false, 0.55}})
	if err != nil || !valid(m) {
		t.Fatalf("DSCombine failed: %+v %v", m, err)
	}
	if maxK <= 0 {
		t.Error("mixed evidence should report conflict")
	}
	if m.T <= m.F {
		t.Error("majority support should dominate")
	}
}

func TestTotalConflict(t *testing.T) {
	a := Mass{T: 1}
	b := Mass{F: 1}
	c, k := a.Combine(b)
	if math.Abs(k-1) > 1e-9 {
		t.Errorf("total conflict k = %f", k)
	}
	if c.U != 1 {
		t.Errorf("total conflict should yield ignorance, got %+v", c)
	}
}

func TestBrierScore(t *testing.T) {
	if _, err := BrierScore(nil, nil); err == nil {
		t.Error("empty input should error")
	}
	if _, err := BrierScore([]float64{0.5}, []bool{true, false}); err == nil {
		t.Error("length mismatch should error")
	}
	s, _ := BrierScore([]float64{1, 0}, []bool{true, false})
	if s != 0 {
		t.Errorf("perfect predictions should score 0, got %f", s)
	}
	s, _ = BrierScore([]float64{0.5, 0.5}, []bool{true, false})
	if math.Abs(s-0.25) > 1e-9 {
		t.Errorf("coin-flip predictions should score 0.25, got %f", s)
	}
}

// Property: Bayes posterior stays in (0,1) and is monotone in the amount of
// supporting evidence.
func TestBayesBoundsProperty(t *testing.T) {
	f := func(n uint8, relPct uint8) bool {
		rel := 0.5 + float64(relPct%50)/100 // [0.5, 1)
		count := int(n%10) + 1
		ev := make([]Evidence, count)
		for i := range ev {
			ev[i] = Evidence{Supports: true, Reliability: rel}
		}
		p1, err1 := BayesCombine(0.5, ev[:1])
		pn, errn := BayesCombine(0.5, ev)
		if err1 != nil || errn != nil {
			return false
		}
		// With many strong supporters the posterior saturates to 1.0 in
		// floating point; the bound is inclusive on that side.
		return p1 > 0 && p1 < 1 && pn > 0 && pn <= 1 && pn >= p1-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Dempster combination preserves mass validity and is
// commutative.
func TestDempsterCommutativeProperty(t *testing.T) {
	f := func(a1, a2, b1, b2 uint8) bool {
		ea := Evidence{Supports: a1%2 == 0, Reliability: 0.01 + float64(a2%99)/100}
		eb := Evidence{Supports: b1%2 == 0, Reliability: 0.01 + float64(b2%99)/100}
		ma, mb := NewMass(ea), NewMass(eb)
		ab, _ := ma.Combine(mb)
		ba, _ := mb.Combine(ma)
		return valid(ab) && valid(ba) &&
			math.Abs(ab.T-ba.T) < 1e-9 && math.Abs(ab.F-ba.F) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: belief (T) <= plausibility (1-F) always.
func TestBeliefPlausibilityProperty(t *testing.T) {
	f := func(items []bool) bool {
		if len(items) == 0 {
			return true
		}
		ev := make([]Evidence, len(items))
		for i, s := range items {
			ev[i] = Evidence{Supports: s, Reliability: 0.7}
		}
		m, _, err := DSCombine(ev)
		return err == nil && m.T <= 1-m.F+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
