package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter value")
	}
	var g *Gauge
	g.Set(3)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge value")
	}
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram reads")
	}

	var r *Registry
	if r.Counter("x") != nil || r.Gauge("y") != nil || r.Histogram("z", DurationBuckets()) != nil {
		t.Fatal("nil registry must return nil handles")
	}
	r.Help("x", "text")
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if r.Summary() != nil {
		t.Fatal("nil registry summary")
	}
}

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits_total", "path", "/a")
	c.Inc()
	c.Add(2)
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	if again := r.Counter("hits_total", "path", "/a"); again != c {
		t.Fatal("re-registration must return the same handle")
	}
	if other := r.Counter("hits_total", "path", "/b"); other == c {
		t.Fatal("different labels must be a different series")
	}
	g := r.Gauge("temp")
	g.Set(1.5)
	g.Add(-0.5)
	if got := g.Value(); got != 1.0 {
		t.Fatalf("gauge = %v, want 1", got)
	}
}

func TestLabelOrderCanonical(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c_total", "x", "1", "y", "2")
	b := r.Counter("c_total", "y", "2", "x", "1")
	if a != b {
		t.Fatal("label order must not create distinct series")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	for i := 0; i < 100; i++ {
		h.Observe(0.5) // all in le=1 bucket
	}
	if q := h.Quantile(0.5); q <= 0 || q > 1 {
		t.Fatalf("p50 = %v, want in (0,1]", q)
	}
	h2 := NewHistogram([]float64{1, 2, 4, 8})
	for i := 0; i < 90; i++ {
		h2.Observe(0.5)
	}
	for i := 0; i < 10; i++ {
		h2.Observe(100) // overflow bucket
	}
	if q := h2.Quantile(0.99); q != 8 {
		t.Fatalf("p99 = %v, want clamp to 8", q)
	}
	if h2.Count() != 100 {
		t.Fatalf("count = %d", h2.Count())
	}
	if s := h2.Sum(); s != 90*0.5+10*100 {
		t.Fatalf("sum = %v", s)
	}
}

func TestPrometheusDeterministic(t *testing.T) {
	build := func(order []func(r *Registry)) string {
		r := NewRegistry()
		for _, f := range order {
			f(r)
		}
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	regA := func(r *Registry) { r.Counter("b_total", "k", "1").Inc() }
	regB := func(r *Registry) { r.Counter("a_total").Add(2) }
	regC := func(r *Registry) { r.Histogram("h_seconds", []float64{1, 2}).Observe(0.5) }
	regD := func(r *Registry) { r.Counter("b_total", "k", "0").Inc() }

	one := build([]func(r *Registry){regA, regB, regC, regD})
	two := build([]func(r *Registry){regD, regC, regB, regA})
	if one != two {
		t.Fatalf("scrape must be deterministic regardless of registration order:\n--- one ---\n%s--- two ---\n%s", one, two)
	}
	for _, want := range []string{
		"# TYPE a_total counter",
		"# TYPE h_seconds histogram",
		"a_total 2",
		`b_total{k="0"} 1`,
		`b_total{k="1"} 1`,
		`h_seconds_bucket{le="1"} 1`,
		`h_seconds_bucket{le="+Inf"} 1`,
		"h_seconds_sum 0.5",
		"h_seconds_count 1",
	} {
		if !strings.Contains(one, want) {
			t.Fatalf("scrape missing %q:\n%s", want, one)
		}
	}
	// a_total (sorted) must precede b_total, b_total{k="0"} precede k="1".
	if strings.Index(one, "a_total 2") > strings.Index(one, `b_total{k="0"}`) {
		t.Fatal("families not sorted by name")
	}
	if strings.Index(one, `b_total{k="0"}`) > strings.Index(one, `b_total{k="1"}`) {
		t.Fatal("series not sorted by labels")
	}
}

func TestHelp(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total").Inc()
	r.Help("x_total", "how many x")
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "# HELP x_total how many x\n") {
		t.Fatalf("missing HELP line:\n%s", b.String())
	}
}

func TestSummary(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "k", "v").Add(7)
	r.Gauge("g").Set(2.5)
	r.Histogram("h_seconds", DurationBuckets()).Observe(1)
	sum := r.Summary()
	if sum[`c_total{k="v"}`] != 7 {
		t.Fatalf("summary counter: %v", sum)
	}
	if sum["g"] != 2.5 {
		t.Fatalf("summary gauge: %v", sum)
	}
	for k := range sum {
		if strings.HasPrefix(k, "h_seconds") {
			t.Fatal("histograms must be omitted from summary")
		}
	}
}

// TestRegistryConcurrentScrape hammers counters, gauges, histograms and
// new-series registration from many goroutines while scraping — the
// race-detector coverage for concurrent registry writes vs /metrics
// reads.
func TestRegistryConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		r.Counter("writes_total", "w", string(rune('a'+w))).Inc()
		go func(w int) {
			defer wg.Done()
			lbl := []string{"w", string(rune('a' + w))}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r.Counter("writes_total", lbl...).Inc()
				r.Gauge("level", lbl...).Set(float64(i))
				r.Histogram("lat_seconds", DurationBuckets(), lbl...).Observe(0.001)
			}
		}(w)
	}
	for s := 0; s < 50; s++ {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		_ = r.Summary()
	}
	close(stop)
	wg.Wait()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `writes_total{w="a"}`) {
		t.Fatalf("missing series after concurrent writes:\n%s", b.String())
	}
}

func TestKindMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r := NewRegistry()
	r.Counter("m")
	r.Gauge("m")
}
