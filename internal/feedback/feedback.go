// Package feedback implements the pay-as-you-go feedback machinery of
// §2.4: a typed feedback store whose items are shared across components
// (one annotation informs source trust, entity resolution and mapping
// selection alike — "feedback of one type should be able to inform many
// different steps", criticising single-task feedback in [6]), plus a
// crowdsourcing simulator with per-worker accuracy and budget accounting
// standing in for the paid micro-task crowds of Example 5.
package feedback

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"sync"
)

// Kind classifies a feedback item.
type Kind string

// Feedback kinds. Value feedback targets (source, entity, attribute)
// triples; pair feedback targets record pairs; source and wrapper feedback
// target sources.
const (
	ValueCorrect     Kind = "value_correct"
	ValueIncorrect   Kind = "value_incorrect"
	DuplicatePair    Kind = "duplicate"
	NotDuplicatePair Kind = "not_duplicate"
	SourceRelevant   Kind = "source_relevant"
	SourceIrrelevant Kind = "source_irrelevant"
	WrapperOK        Kind = "wrapper_ok"
	WrapperBroken    Kind = "wrapper_broken"
)

// Item is one unit of feedback — one unit of "payment" in the
// pay-as-you-go model, whether from a domain expert or a paid crowd
// worker.
type Item struct {
	Seq       int // assigned by the store
	Kind      Kind
	SourceID  string  // source concerned (value/source/wrapper kinds)
	Entity    string  // entity id (value kinds)
	Attribute string  // attribute name (value kinds)
	PairKey   string  // canonical pair identifier (pair kinds)
	Worker    string  // who provided it ("expert" or a crowd worker id)
	Cost      float64 // payment units consumed
	Weight    float64 // reliability weight in (0,1]; 1 = trusted expert
}

// PairKey canonicalises a record-pair identifier.
func PairKey(a, b string) string {
	if b < a {
		a, b = b, a
	}
	return a + "|" + b
}

// Store accumulates feedback and answers the assimilation queries of the
// downstream components. It is safe for concurrent use.
type Store struct {
	mu    sync.RWMutex
	items []Item
	spent float64
}

// NewStore returns an empty feedback store.
func NewStore() *Store { return &Store{} }

// Add records an item and returns it with its sequence number set. Zero
// weights are promoted to 1 (trusted).
func (s *Store) Add(it Item) Item {
	s.mu.Lock()
	defer s.mu.Unlock()
	if it.Weight <= 0 {
		it.Weight = 1
	}
	it.Seq = len(s.items) + 1
	s.items = append(s.items, it)
	s.spent += it.Cost
	return it
}

// Len returns the number of items.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.items)
}

// Spent returns the total cost of all feedback so far.
func (s *Store) Spent() float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.spent
}

// Items returns a copy of all items (in arrival order), optionally
// filtered by kind (empty kind = all).
func (s *Store) Items(kind Kind) []Item {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Item, 0, len(s.items))
	for _, it := range s.items {
		if kind == "" || it.Kind == kind {
			out = append(out, it)
		}
	}
	return out
}

// Since returns items with Seq > seq — the increment an orchestrator needs
// to process after its last assimilation point.
func (s *Store) Since(seq int) []Item {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []Item
	for _, it := range s.items {
		if it.Seq > seq {
			out = append(out, it)
		}
	}
	return out
}

// SourceTrust derives per-source trust from value feedback using a
// weighted Beta-style estimate: (correct + 1) / (correct + incorrect + 2).
// Sources without feedback are absent from the map — this is the shared
// assimilation path from value annotations into fusion weighting.
func (s *Store) SourceTrust() map[string]float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	pos := map[string]float64{}
	neg := map[string]float64{}
	for _, it := range s.items {
		switch it.Kind {
		case ValueCorrect:
			pos[it.SourceID] += it.Weight
		case ValueIncorrect:
			neg[it.SourceID] += it.Weight
		}
	}
	out := map[string]float64{}
	for src := range pos {
		out[src] = (pos[src] + 1) / (pos[src] + neg[src] + 2)
	}
	for src := range neg {
		if _, done := out[src]; !done {
			out[src] = 1 / (neg[src] + 2)
		}
	}
	return out
}

// PairLabel aggregates duplicate/not-duplicate votes for a pair into a
// single label by weighted majority. ok is false when no votes exist or
// they tie exactly.
func (s *Store) PairLabel(pairKey string) (dup bool, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	score := 0.0
	seen := false
	for _, it := range s.items {
		if it.PairKey != pairKey {
			continue
		}
		switch it.Kind {
		case DuplicatePair:
			score += it.Weight
			seen = true
		case NotDuplicatePair:
			score -= it.Weight
			seen = true
		}
	}
	if !seen || score == 0 {
		return false, false
	}
	return score > 0, true
}

// PairVerdict is one pair's decided label: its weighted majority, and the
// net weighted duplicate score behind it — positive when duplicate votes
// dominate, its magnitude the confidence. An expert label (weight 1)
// scores ±1; a 3-of-5 crowd majority scores ±0.6.
type PairVerdict struct {
	Key       string
	Duplicate bool
	Score     float64
}

// PairLabels returns every pair with a decided label (PairLabel's rule),
// sorted by pair key: consumers that fold labels into sums, like the
// resolver's Learn, get one order on every run.
func (s *Store) PairLabels() []PairVerdict {
	s.mu.RLock()
	scores := map[string]float64{}
	for _, it := range s.items {
		switch it.Kind {
		case DuplicatePair:
			scores[it.PairKey] += it.Weight
		case NotDuplicatePair:
			scores[it.PairKey] -= it.Weight
		}
	}
	s.mu.RUnlock()
	var out []PairVerdict
	for _, k := range slices.Sorted(maps.Keys(scores)) {
		if score := scores[k]; score != 0 {
			out = append(out, PairVerdict{Key: k, Duplicate: score > 0, Score: score})
		}
	}
	return out
}

// SourceRelevance nets relevance votes per source: positive means
// relevant. Sources without votes are absent.
func (s *Store) SourceRelevance() map[string]float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := map[string]float64{}
	for _, it := range s.items {
		switch it.Kind {
		case SourceRelevant:
			out[it.SourceID] += it.Weight
		case SourceIrrelevant:
			out[it.SourceID] -= it.Weight
		}
	}
	return out
}

// BrokenWrappers returns the sources whose latest wrapper feedback is
// WrapperBroken.
func (s *Store) BrokenWrappers() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	last := map[string]Kind{}
	for _, it := range s.items {
		if it.Kind == WrapperOK || it.Kind == WrapperBroken {
			last[it.SourceID] = it.Kind
		}
	}
	var out []string
	for src, k := range last {
		if k == WrapperBroken {
			out = append(out, src)
		}
	}
	sort.Strings(out)
	return out
}

// Worker is one simulated crowd worker: answers are correct with
// probability Accuracy.
type Worker struct {
	ID       string
	Accuracy float64
}

// Crowd simulates paid micro-task crowdsourcing (Example 5): binary
// questions are replicated across workers and majority-aggregated, each
// answer costing CostPerTask.
type Crowd struct {
	Workers     []Worker
	CostPerTask float64
	rng         *rand.Rand
}

// NewCrowd builds a crowd of n workers with accuracies evenly spread in
// [minAcc, maxAcc], deterministic in seed.
func NewCrowd(seed int64, n int, minAcc, maxAcc, costPerTask float64) *Crowd {
	rng := rand.New(rand.NewSource(seed))
	c := &Crowd{CostPerTask: costPerTask, rng: rng}
	for i := 0; i < n; i++ {
		acc := minAcc
		if n > 1 {
			acc += (maxAcc - minAcc) * float64(i) / float64(n-1)
		}
		c.Workers = append(c.Workers, Worker{ID: fmt.Sprintf("w%02d", i), Accuracy: acc})
	}
	return c
}

// Answer is one worker's reply to a binary question.
type Answer struct {
	Worker string
	Value  bool
}

// Ask replicates a binary question (with ground truth `truth`) across k
// randomly chosen workers and returns the majority answer, the individual
// answers and the cost incurred. k is clamped to at least 1; ties resolve
// to false.
func (c *Crowd) Ask(truth bool, k int) (bool, []Answer, float64) {
	if k < 1 {
		k = 1
	}
	answers := make([]Answer, 0, k)
	yes := 0
	for i := 0; i < k; i++ {
		w := c.Workers[c.rng.Intn(len(c.Workers))]
		v := truth
		if c.rng.Float64() > w.Accuracy {
			v = !truth
		}
		if v {
			yes++
		}
		answers = append(answers, Answer{Worker: w.ID, Value: v})
	}
	return yes*2 > k, answers, float64(k) * c.CostPerTask
}

// LabelPairs asks the crowd about each pair (keyed by PairKey with ground
// truth) with k-fold replication, records the aggregated labels in the
// store with weight equal to the empirical majority reliability, and
// returns the total cost.
func (c *Crowd) LabelPairs(store *Store, truths map[string]bool, k int) float64 {
	keys := make([]string, 0, len(truths))
	for key := range truths {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	total := 0.0
	for _, key := range keys {
		label, answers, cost := c.Ask(truths[key], k)
		total += cost
		kind := NotDuplicatePair
		if label {
			kind = DuplicatePair
		}
		agree := 0
		for _, a := range answers {
			if a.Value == label {
				agree++
			}
		}
		weight := float64(agree) / float64(len(answers))
		store.Add(Item{Kind: kind, PairKey: key, Worker: "crowd", Cost: cost, Weight: weight})
	}
	return total
}
