// Package match implements schema matching for the Data Integration
// component (§4.1 of Furche et al.): given an extracted source table and a
// target schema, it proposes attribute correspondences scored by multiple
// evidence types — name similarity, instance (value distribution) overlap,
// and ontology evidence — combined into a single confidence. Experiment E4
// sweeps the evidence types to show each contributes.
package match

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dataset"
	"repro/internal/ontology"
	"repro/internal/text"
)

// Correspondence is one proposed attribute match with per-evidence scores
// and the combined confidence in [0,1].
type Correspondence struct {
	SourceColumn  string
	TargetColumn  string
	NameScore     float64 // syntactic name similarity
	InstanceScore float64 // value-overlap similarity
	OntologyScore float64 // both names map to the same canonical property
	Confidence    float64
}

// Evidence toggles which evidence types the matcher uses (E4 ablation).
type Evidence struct {
	Name     bool
	Instance bool
	Ontology bool
}

// AllEvidence enables every evidence type.
func AllEvidence() Evidence { return Evidence{Name: true, Instance: true, Ontology: true} }

// Matcher matches source tables against a fixed target schema. Target
// sample values power instance-based evidence; a taxonomy powers ontology
// evidence. Either may be nil, disabling that evidence type regardless of
// the Evidence toggles.
type Matcher struct {
	target    dataset.Schema
	samples   map[string][]dataset.Value // target column -> sample values
	tax       *ontology.Taxonomy
	evidence  Evidence
	threshold float64
}

// Option configures a Matcher.
type Option func(*Matcher)

// WithEvidence selects evidence types.
func WithEvidence(e Evidence) Option { return func(m *Matcher) { m.evidence = e } }

// WithTaxonomy supplies ontology evidence.
func WithTaxonomy(t *ontology.Taxonomy) Option { return func(m *Matcher) { m.tax = t } }

// WithSamples supplies target-side instance samples per target column.
func WithSamples(s map[string][]dataset.Value) Option { return func(m *Matcher) { m.samples = s } }

// WithThreshold sets the minimum confidence for a correspondence to be
// kept (default 0.45).
func WithThreshold(th float64) Option { return func(m *Matcher) { m.threshold = th } }

// NewMatcher builds a matcher for the given target schema.
func NewMatcher(target dataset.Schema, opts ...Option) *Matcher {
	m := &Matcher{target: target, evidence: AllEvidence(), threshold: 0.45}
	for _, o := range opts {
		o(m)
	}
	return m
}

// Match proposes a 1:1 correspondence set between the source table's
// columns and the target schema, using greedy best-first selection over
// the combined confidences (a stable-marriage-style assignment).
func (m *Matcher) Match(source *dataset.Table) ([]Correspondence, error) {
	if len(source.Schema()) == 0 {
		return nil, fmt.Errorf("match: source has no columns")
	}
	var cands []Correspondence
	for _, sf := range source.Schema() {
		srcVals, _ := source.Column(sf.Name)
		for _, tf := range m.target {
			c := m.score(sf.Name, srcVals, tf.Name)
			if c.Confidence >= m.threshold {
				cands = append(cands, c)
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Confidence != cands[j].Confidence {
			return cands[i].Confidence > cands[j].Confidence
		}
		if cands[i].SourceColumn != cands[j].SourceColumn {
			return cands[i].SourceColumn < cands[j].SourceColumn
		}
		return cands[i].TargetColumn < cands[j].TargetColumn
	})
	usedSrc, usedTgt := map[string]bool{}, map[string]bool{}
	var out []Correspondence
	for _, c := range cands {
		if usedSrc[c.SourceColumn] || usedTgt[c.TargetColumn] {
			continue
		}
		usedSrc[c.SourceColumn] = true
		usedTgt[c.TargetColumn] = true
		out = append(out, c)
	}
	return out, nil
}

// score computes all enabled evidence scores for one column pair and
// combines them. Evidence is averaged over the enabled-and-available types,
// with ontology agreement acting as a strong boost and ontology
// disagreement (both classified, differently) as a penalty.
func (m *Matcher) score(srcCol string, srcVals []dataset.Value, tgtCol string) Correspondence {
	c := Correspondence{SourceColumn: srcCol, TargetColumn: tgtCol}
	weights, total := 0.0, 0.0
	if m.evidence.Name {
		c.NameScore = nameSimilarity(srcCol, tgtCol)
		total += 1.0 * c.NameScore
		weights += 1.0
	}
	if m.evidence.Instance && m.samples != nil {
		if tv, ok := m.samples[tgtCol]; ok && len(tv) > 0 && len(srcVals) > 0 {
			c.InstanceScore = instanceSimilarity(srcVals, tv)
			total += 1.2 * c.InstanceScore
			weights += 1.2
		}
	}
	if m.evidence.Ontology && m.tax != nil {
		sProp, sConf := m.tax.CanonicalProperty(srcCol)
		tProp, tConf := m.tax.CanonicalProperty(tgtCol)
		switch {
		case sProp != "" && sProp == tProp:
			c.OntologyScore = sConf * tConf
			total += 1.5 * c.OntologyScore
			weights += 1.5
		case sProp != "" && tProp != "" && sProp != tProp:
			// Confident disagreement is negative evidence.
			c.OntologyScore = 0
			total += 0
			weights += 1.5
		}
	}
	if weights == 0 {
		c.Confidence = 0
		return c
	}
	c.Confidence = total / weights
	// A high-confidence ontology agreement (both names are known synonyms
	// of the same canonical property) is near-conclusive on its own: floor
	// the combined confidence so weak syntactic/instance evidence cannot
	// veto the synonym table.
	if floor := 0.8 * c.OntologyScore; floor > c.Confidence {
		c.Confidence = floor
	}
	return c
}

// nameSimilarity blends edit-based and token-based similarity of column
// names after normalisation.
func nameSimilarity(a, b string) float64 {
	na, nb := text.Normalize(a), text.Normalize(b)
	if na == nb {
		return 1
	}
	return 0.6*text.JaroWinkler(na, nb) + 0.4*text.JaccardQGrams(na, nb, 3)
}

// instanceSimilarity measures distribution overlap between two value
// samples: for numeric columns the overlap of value ranges and scale; for
// text the Jaccard overlap of normalised value sets, with a fallback to
// token-level cosine.
func instanceSimilarity(a, b []dataset.Value) float64 {
	an, at := partition(a)
	bn, bt := partition(b)
	// Mostly-numeric columns compare numerically.
	if len(an) > len(at) && len(bn) > len(bt) {
		return numericOverlap(an, bn)
	}
	if len(at) == 0 || len(bt) == 0 {
		return 0
	}
	sa := normSet(at)
	sb := normSet(bt)
	inter := 0
	for k := range sa {
		if sb[k] {
			inter++
		}
	}
	union := len(sa) + len(sb) - inter
	if union == 0 {
		return 0
	}
	j := float64(inter) / float64(union)
	if j > 0 {
		return j
	}
	// No exact overlap: compare token distributions (catches same-domain
	// columns with disjoint entities).
	corpus := text.NewCorpus()
	da, db := joinSample(at), joinSample(bt)
	corpus.Add(da)
	corpus.Add(db)
	return 0.5 * corpus.Cosine(da, db)
}

func partition(vals []dataset.Value) (nums []float64, texts []string) {
	for _, v := range vals {
		switch {
		case v.IsNull():
		case v.IsNumeric():
			nums = append(nums, v.FloatVal())
		default:
			texts = append(texts, v.String())
		}
	}
	return nums, texts
}

func normSet(texts []string) map[string]bool {
	s := make(map[string]bool, len(texts))
	for _, t := range texts {
		s[text.Normalize(t)] = true
	}
	return s
}

func joinSample(texts []string) string {
	n := len(texts)
	if n > 40 {
		n = 40
	}
	out := ""
	for _, t := range texts[:n] {
		out += t + " "
	}
	return out
}

// numericOverlap compares numeric samples by the overlap of their
// [p10, p90] ranges in signed-log space. Log scale makes the measure about
// orders of magnitude rather than absolute spread, which separates prices
// from ratings from coordinates even when samples are small and entity
// sets disjoint.
func numericOverlap(a, b []float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	al, ah := quantiles(a)
	bl, bh := quantiles(b)
	al, ah, bl, bh = slog(al), slog(ah), slog(bl), slog(bh)
	lo := math.Max(al, bl)
	hi := math.Min(ah, bh)
	span := math.Max(ah, bh) - math.Min(al, bl)
	if span < 1e-9 {
		// Same point mass in log space: identical scale.
		if hi >= lo {
			return 1
		}
		return 0
	}
	if hi <= lo {
		return 0
	}
	return (hi - lo) / span
}

// slog is a sign-preserving log1p transform.
func slog(x float64) float64 {
	if x < 0 {
		return -math.Log1p(-x)
	}
	return math.Log1p(x)
}

func quantiles(vals []float64) (p10, p90 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	lo := s[len(s)/10]
	hi := s[len(s)*9/10]
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// F1 scores a correspondence set against a gold mapping of source column ->
// target column. It returns precision, recall and F1.
func F1(got []Correspondence, gold map[string]string) (p, r, f float64) {
	correct := 0
	for _, c := range got {
		if gold[c.SourceColumn] == c.TargetColumn {
			correct++
		}
	}
	if len(got) > 0 {
		p = float64(correct) / float64(len(got))
	}
	if len(gold) > 0 {
		r = float64(correct) / float64(len(gold))
	}
	if p+r > 0 {
		f = 2 * p * r / (p + r)
	}
	return p, r, f
}
