// Package context implements the two context notions at the heart of the
// paper's vision (§2.1, §2.3, §3.3):
//
//   - The user context — "functional and non-functional requirements of
//     the users, and the trade-offs between them" — captured as weighted
//     quality criteria elicited through the Analytic Hierarchy Process
//     (Saaty [31]): pairwise importance comparisons are turned into a
//     priority vector via the principal eigenvector, with the consistency
//     ratio guarding against incoherent judgements.
//
//   - The data context — "the sources that may provide data for wrangling,
//     and other information that may inform the wrangling process" — a
//     registry of master data and domain ontologies that extraction,
//     matching and fusion consult.
package context

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/ontology"
)

// Criterion names a quality dimension the user cares about.
type Criterion string

// The standard wrangling criteria (§2.1 names accuracy, timeliness and
// completeness explicitly; cost and relevance arise in §4.1).
const (
	Accuracy     Criterion = "accuracy"
	Completeness Criterion = "completeness"
	Timeliness   Criterion = "timeliness"
	Consistency  Criterion = "consistency"
	Relevance    Criterion = "relevance"
	Cost         Criterion = "cost"
)

// UserContext is a named set of criterion weights (normalised to sum 1)
// plus hard resource bounds.
type UserContext struct {
	Name    string
	Weights map[Criterion]float64
	// MaxSources bounds how many sources the planner may use (0 = no
	// bound) — the "budget for accessing sources" of §4.1.
	MaxSources int
	// FeedbackBudget bounds pay-as-you-go spending (0 = no bound).
	FeedbackBudget float64
}

// Weight returns the context's weight for a criterion (0 if unset).
func (u *UserContext) Weight(c Criterion) float64 { return u.Weights[c] }

// DefaultUserContext returns the balanced context used when a caller
// supplies none: accuracy, completeness, timeliness and relevance
// weighted equally, no resource bounds.
func DefaultUserContext() *UserContext {
	return &UserContext{Name: "default", Weights: map[Criterion]float64{
		Accuracy: 0.25, Completeness: 0.25, Timeliness: 0.25, Relevance: 0.25,
	}}
}

// AHP is a pairwise comparison matrix over criteria. Entry (i,j) holds how
// much more important criterion i is than j on Saaty's 1-9 scale;
// reciprocals are enforced by Set.
type AHP struct {
	criteria []Criterion
	m        [][]float64
}

// NewAHP creates an identity comparison matrix over the given criteria.
func NewAHP(criteria ...Criterion) (*AHP, error) {
	if len(criteria) < 2 {
		return nil, fmt.Errorf("context: AHP needs at least two criteria")
	}
	seen := map[Criterion]bool{}
	for _, c := range criteria {
		if seen[c] {
			return nil, fmt.Errorf("context: duplicate criterion %q", c)
		}
		seen[c] = true
	}
	n := len(criteria)
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		for j := range m[i] {
			if i == j {
				m[i][j] = 1
			} else {
				m[i][j] = 1
			}
		}
	}
	return &AHP{criteria: append([]Criterion(nil), criteria...), m: m}, nil
}

// Set records that a is `ratio` times as important as b (Saaty scale 1-9;
// fractional values allowed) and enforces the reciprocal entry.
func (a *AHP) Set(x, y Criterion, ratio float64) error {
	if ratio <= 0 {
		return fmt.Errorf("context: ratio must be positive, got %f", ratio)
	}
	i, j := a.index(x), a.index(y)
	if i < 0 || j < 0 {
		return fmt.Errorf("context: unknown criterion %q or %q", x, y)
	}
	a.m[i][j] = ratio
	a.m[j][i] = 1 / ratio
	return nil
}

func (a *AHP) index(c Criterion) int {
	for i, x := range a.criteria {
		if x == c {
			return i
		}
	}
	return -1
}

// Weights computes the priority vector by power iteration on the
// comparison matrix (principal eigenvector, normalised to sum 1) and the
// consistency ratio CR. Judgements with CR > 0.1 are conventionally
// considered too inconsistent to use.
func (a *AHP) Weights() (map[Criterion]float64, float64) {
	n := len(a.criteria)
	v := make([]float64, n)
	for i := range v {
		v[i] = 1 / float64(n)
	}
	var lambda float64
	for iter := 0; iter < 100; iter++ {
		next := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				next[i] += a.m[i][j] * v[j]
			}
		}
		sum := 0.0
		for _, x := range next {
			sum += x
		}
		if sum == 0 {
			break
		}
		delta := 0.0
		for i := range next {
			next[i] /= sum
			delta += math.Abs(next[i] - v[i])
		}
		v = next
		lambda = sum
		if delta < 1e-12 {
			break
		}
	}
	// lambda_max estimate: average of (Av)_i / v_i.
	lmax := 0.0
	for i := 0; i < n; i++ {
		av := 0.0
		for j := 0; j < n; j++ {
			av += a.m[i][j] * v[j]
		}
		if v[i] > 0 {
			lmax += av / v[i]
		}
	}
	lmax /= float64(n)
	_ = lambda
	ci := (lmax - float64(n)) / float64(n-1)
	ri := randomIndex(n)
	cr := 0.0
	if ri > 0 {
		cr = ci / ri
	}
	out := make(map[Criterion]float64, n)
	for i, c := range a.criteria {
		out[c] = v[i]
	}
	return out, cr
}

// randomIndex returns Saaty's random consistency index for matrices of
// size n.
func randomIndex(n int) float64 {
	ri := []float64{0, 0, 0, 0.58, 0.90, 1.12, 1.24, 1.32, 1.41, 1.45, 1.49}
	if n < len(ri) {
		return ri[n]
	}
	return 1.49
}

// BuildUserContext elicits a user context from an AHP matrix, returning an
// error when the judgements are too inconsistent (CR > 0.1).
func BuildUserContext(name string, a *AHP, maxSources int, feedbackBudget float64) (*UserContext, error) {
	w, cr := a.Weights()
	if cr > 0.1 {
		return nil, fmt.Errorf("context: AHP consistency ratio %.3f exceeds 0.1 — revise judgements", cr)
	}
	return &UserContext{Name: name, Weights: w, MaxSources: maxSources, FeedbackBudget: feedbackBudget}, nil
}

// Score combines per-criterion scores (each in [0,1], missing = skipped)
// into the context-weighted utility.
func (u *UserContext) Score(scores map[Criterion]float64) float64 {
	total, wsum := 0.0, 0.0
	for c, w := range u.Weights {
		if s, ok := scores[c]; ok && w > 0 {
			total += w * s
			wsum += w
		}
	}
	if wsum == 0 {
		return 0
	}
	return total / wsum
}

// DataContext is the registry of auxiliary information available to the
// wrangling process (Figure 1's "Auxiliary Data").
type DataContext struct {
	// MasterData is the application's own trusted table (e.g. the
	// e-commerce company's product catalog, Example 4).
	MasterData *dataset.Table
	// MasterKey names the entity-key column of MasterData.
	MasterKey string
	// Taxonomy is the domain ontology.
	Taxonomy *ontology.Taxonomy
}

// NewDataContext returns an empty data context.
func NewDataContext() *DataContext {
	return &DataContext{}
}

// WithMaster sets the master-data table and key.
func (d *DataContext) WithMaster(t *dataset.Table, key string) *DataContext {
	d.MasterData = t
	d.MasterKey = key
	return d
}

// WithTaxonomy sets the ontology.
func (d *DataContext) WithTaxonomy(t *ontology.Taxonomy) *DataContext {
	d.Taxonomy = t
	return d
}

// MasterSamples extracts per-column value samples from master data (at
// most n per column) for instance-based matching.
func (d *DataContext) MasterSamples(n int) map[string][]dataset.Value {
	if d.MasterData == nil {
		return nil
	}
	out := map[string][]dataset.Value{}
	for _, f := range d.MasterData.Schema() {
		col, err := d.MasterData.Column(f.Name)
		if err != nil {
			continue
		}
		if len(col) > n {
			col = col[:n]
		}
		out[f.Name] = col
	}
	return out
}

// EvidenceInventory lists which evidence types this data context can
// supply, for diagnostics and the E4 sweep.
func (d *DataContext) EvidenceInventory() []string {
	var out []string
	if d.MasterData != nil {
		out = append(out, "master_data")
	}
	if d.Taxonomy != nil {
		out = append(out, "ontology")
	}
	return out
}
