package feedback

import (
	"reflect"
	"sync"
	"testing"
)

func TestAddAndQuery(t *testing.T) {
	s := NewStore()
	it := s.Add(Item{Kind: ValueCorrect, SourceID: "s1", Entity: "e1", Attribute: "price", Cost: 1})
	if it.Seq != 1 || it.Weight != 1 {
		t.Errorf("first item = %+v", it)
	}
	s.Add(Item{Kind: ValueIncorrect, SourceID: "s1", Entity: "e2", Attribute: "price", Cost: 1})
	s.Add(Item{Kind: DuplicatePair, PairKey: PairKey("b", "a"), Cost: 0.1})
	if s.Len() != 3 {
		t.Errorf("Len = %d", s.Len())
	}
	if s.Spent() != 2.1 {
		t.Errorf("Spent = %f", s.Spent())
	}
	if got := s.Items(ValueCorrect); len(got) != 1 {
		t.Errorf("filtered items = %d", len(got))
	}
	if got := s.Items(""); len(got) != 3 {
		t.Errorf("all items = %d", len(got))
	}
}

func TestSince(t *testing.T) {
	s := NewStore()
	s.Add(Item{Kind: ValueCorrect, SourceID: "a"})
	s.Add(Item{Kind: ValueCorrect, SourceID: "b"})
	s.Add(Item{Kind: ValueCorrect, SourceID: "c"})
	inc := s.Since(1)
	if len(inc) != 2 || inc[0].SourceID != "b" {
		t.Errorf("Since(1) = %+v", inc)
	}
	if len(s.Since(3)) != 0 {
		t.Error("Since(latest) should be empty")
	}
}

func TestPairKeyCanonical(t *testing.T) {
	if PairKey("x", "a") != PairKey("a", "x") {
		t.Error("PairKey should be order-insensitive")
	}
}

func TestSourceTrust(t *testing.T) {
	s := NewStore()
	for i := 0; i < 8; i++ {
		s.Add(Item{Kind: ValueCorrect, SourceID: "good"})
	}
	s.Add(Item{Kind: ValueIncorrect, SourceID: "good"})
	for i := 0; i < 6; i++ {
		s.Add(Item{Kind: ValueIncorrect, SourceID: "bad"})
	}
	trust := s.SourceTrust()
	if trust["good"] < 0.7 {
		t.Errorf("good trust = %f", trust["good"])
	}
	if trust["bad"] > 0.2 {
		t.Errorf("bad trust = %f", trust["bad"])
	}
	if _, ok := trust["unseen"]; ok {
		t.Error("unseen sources must be absent")
	}
}

func TestSourceTrustWeighted(t *testing.T) {
	s := NewStore()
	s.Add(Item{Kind: ValueCorrect, SourceID: "s", Weight: 0.5})
	s.Add(Item{Kind: ValueIncorrect, SourceID: "s", Weight: 0.5})
	trust := s.SourceTrust()
	// (0.5+1)/(1+2) = 0.5.
	if trust["s"] != 0.5 {
		t.Errorf("balanced weighted trust = %f, want 0.5", trust["s"])
	}
}

func TestPairLabelMajority(t *testing.T) {
	s := NewStore()
	k := PairKey("r1", "r2")
	s.Add(Item{Kind: DuplicatePair, PairKey: k, Weight: 0.6})
	s.Add(Item{Kind: DuplicatePair, PairKey: k, Weight: 0.6})
	s.Add(Item{Kind: NotDuplicatePair, PairKey: k, Weight: 0.9})
	dup, ok := s.PairLabel(k)
	if !ok || !dup {
		t.Errorf("PairLabel = %v,%v want dup (1.2 vs 0.9)", dup, ok)
	}
	if _, ok := s.PairLabel("unknown"); ok {
		t.Error("unknown pair should be !ok")
	}
}

func TestPairLabelTie(t *testing.T) {
	s := NewStore()
	k := PairKey("a", "b")
	s.Add(Item{Kind: DuplicatePair, PairKey: k, Weight: 1})
	s.Add(Item{Kind: NotDuplicatePair, PairKey: k, Weight: 1})
	if _, ok := s.PairLabel(k); ok {
		t.Error("exact tie should be undecided")
	}
}

func TestPairLabels(t *testing.T) {
	s := NewStore()
	s.Add(Item{Kind: DuplicatePair, PairKey: PairKey("a", "b")})
	s.Add(Item{Kind: NotDuplicatePair, PairKey: PairKey("c", "d")})
	s.Add(Item{Kind: DuplicatePair, PairKey: PairKey("e", "f")})
	s.Add(Item{Kind: NotDuplicatePair, PairKey: PairKey("e", "f")})
	s.Add(Item{Kind: DuplicatePair, PairKey: PairKey("0", "1"), Weight: 0.6})
	want := []PairVerdict{
		{Key: PairKey("0", "1"), Duplicate: true, Score: 0.6},
		{Key: PairKey("a", "b"), Duplicate: true, Score: 1},
		{Key: PairKey("c", "d"), Duplicate: false, Score: -1},
	}
	if labels := s.PairLabels(); !reflect.DeepEqual(labels, want) {
		t.Errorf("PairLabels = %v, want %v (sorted by key, ties undecided)", labels, want)
	}
}

func TestSourceRelevance(t *testing.T) {
	s := NewStore()
	s.Add(Item{Kind: SourceRelevant, SourceID: "s1"})
	s.Add(Item{Kind: SourceRelevant, SourceID: "s1"})
	s.Add(Item{Kind: SourceIrrelevant, SourceID: "s1"})
	s.Add(Item{Kind: SourceIrrelevant, SourceID: "s2"})
	rel := s.SourceRelevance()
	if rel["s1"] != 1 || rel["s2"] != -1 {
		t.Errorf("relevance = %v", rel)
	}
}

func TestBrokenWrappers(t *testing.T) {
	s := NewStore()
	s.Add(Item{Kind: WrapperBroken, SourceID: "s1"})
	s.Add(Item{Kind: WrapperBroken, SourceID: "s2"})
	s.Add(Item{Kind: WrapperOK, SourceID: "s1"}) // repaired later
	broken := s.BrokenWrappers()
	if len(broken) != 1 || broken[0] != "s2" {
		t.Errorf("BrokenWrappers = %v", broken)
	}
}

func TestConcurrentStore(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				s.Add(Item{Kind: ValueCorrect, SourceID: "s"})
				s.SourceTrust()
			}
		}()
	}
	wg.Wait()
	if s.Len() != 800 {
		t.Errorf("Len = %d, want 800", s.Len())
	}
}

func TestCrowdAccuracyAggregation(t *testing.T) {
	// A reliable crowd with 5-fold replication should get nearly all
	// answers right; an unreliable one should not.
	reliable := NewCrowd(1, 10, 0.9, 0.95, 0.05)
	unreliable := NewCrowd(2, 10, 0.45, 0.55, 0.05)
	relCorrect, unrelCorrect := 0, 0
	n := 200
	for i := 0; i < n; i++ {
		truth := i%2 == 0
		if got, _, _ := reliable.Ask(truth, 5); got == truth {
			relCorrect++
		}
		if got, _, _ := unreliable.Ask(truth, 5); got == truth {
			unrelCorrect++
		}
	}
	if relCorrect < n*95/100 {
		t.Errorf("reliable crowd correct %d/%d", relCorrect, n)
	}
	if unrelCorrect > n*75/100 {
		t.Errorf("unreliable crowd suspiciously good: %d/%d", unrelCorrect, n)
	}
}

func TestCrowdCost(t *testing.T) {
	c := NewCrowd(3, 5, 0.8, 0.9, 0.10)
	_, answers, cost := c.Ask(true, 7)
	if len(answers) != 7 {
		t.Errorf("answers = %d", len(answers))
	}
	if cost < 0.7-1e-9 || cost > 0.7+1e-9 {
		t.Errorf("cost = %f, want 0.7", cost)
	}
	_, answers, _ = c.Ask(true, 0)
	if len(answers) != 1 {
		t.Error("k<1 should clamp to 1")
	}
}

func TestCrowdDeterministic(t *testing.T) {
	a := NewCrowd(7, 5, 0.7, 0.9, 0.1)
	b := NewCrowd(7, 5, 0.7, 0.9, 0.1)
	for i := 0; i < 20; i++ {
		va, _, _ := a.Ask(i%2 == 0, 3)
		vb, _, _ := b.Ask(i%2 == 0, 3)
		if va != vb {
			t.Fatal("crowd not deterministic under same seed")
		}
	}
}

func TestLabelPairsRecordsFeedback(t *testing.T) {
	c := NewCrowd(4, 8, 0.85, 0.95, 0.02)
	s := NewStore()
	truths := map[string]bool{
		PairKey("a", "b"): true,
		PairKey("c", "d"): false,
		PairKey("e", "f"): true,
	}
	cost := c.LabelPairs(s, truths, 3)
	if cost <= 0 || s.Spent() != cost {
		t.Errorf("cost accounting wrong: %f vs %f", cost, s.Spent())
	}
	labels := s.PairLabels()
	if len(labels) != 3 {
		t.Fatalf("labels = %v", labels)
	}
	correct := 0
	for _, l := range labels {
		if l.Duplicate == truths[l.Key] {
			correct++
		}
	}
	if correct < 2 {
		t.Errorf("crowd labels correct %d/3", correct)
	}
}
