package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/wrangle"
)

func getText(t *testing.T, url string, wantStatus int) (string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s = %d, want %d", url, resp.StatusCode, wantStatus)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b), resp.Header.Get("Content-Type")
}

// TestMetricsEndpoint scrapes a served session: 200, the Prometheus
// content type, the advertised families, and a deterministic exposition
// (two idle scrapes are byte-identical; TYPE lines appear sorted).
func TestMetricsEndpoint(t *testing.T) {
	s, _, ts := newTestTier(t, wrangle.WithMetrics())
	if _, err := s.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	text, ct := getText(t, ts.URL+"/metrics", http.StatusOK)
	if !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want Prometheus text exposition", ct)
	}
	for _, want := range []string{
		`wrangle_reactions_total{origin="run"} 1`,
		`wrangle_reactions_total{origin="refresh"} 1`,
		"# TYPE wrangle_stage_seconds histogram",
		"# TYPE wrangle_trust_components gauge",
		"# TYPE wrangle_trust_component_iterations histogram",
		"wrangle_serve_publishes_total 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	var families []string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			families = append(families, line)
		}
	}
	if len(families) < 10 {
		t.Errorf("only %d families exposed", len(families))
	}
	for i := 1; i < len(families); i++ {
		if families[i-1] >= families[i] {
			t.Errorf("families out of order: %q before %q", families[i-1], families[i])
		}
	}
	again, _ := getText(t, ts.URL+"/metrics", http.StatusOK)
	if text != again {
		t.Error("consecutive idle scrapes differ")
	}
}

// TestMetricsDisabled404 pins the no-telemetry surface: without
// WithMetrics the endpoint is a JSON 404, not an empty exposition.
func TestMetricsDisabled404(t *testing.T) {
	_, _, ts := newTestTier(t)
	body := getJSON(t, ts.URL+"/metrics", http.StatusNotFound)
	if body["error"] == nil {
		t.Errorf("404 body has no error field: %v", body)
	}
}

// TestTypedErrorCounters drives the two typed read-error paths through
// the HTTP tier and asserts each increments its own counter: a
// compacted ?version=N (410) and /watch?from (410) count as
// kind="compacted", an out-of-range version (404) as kind="not_found".
func TestTypedErrorCounters(t *testing.T) {
	s, _, ts := newTestTier(t, wrangle.WithMetrics())
	for i := 0; i < 3; i++ { // versions 2..4; retained [3 4]
		if _, err := s.Refresh(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	compacted := s.Metrics().Counter("wrangle_serve_read_errors_total", "kind", "compacted")
	notFound := s.Metrics().Counter("wrangle_serve_read_errors_total", "kind", "not_found")

	getJSON(t, ts.URL+"/table?version=1", http.StatusGone)
	if got := compacted.Value(); got != 1 {
		t.Errorf("compacted counter after 410 = %d, want 1", got)
	}
	getJSON(t, ts.URL+"/table?version=99", http.StatusNotFound)
	if got := notFound.Value(); got != 1 {
		t.Errorf("not_found counter after 404 = %d, want 1", got)
	}
	getJSON(t, ts.URL+"/watch?from=1", http.StatusGone)
	if got := compacted.Value(); got != 2 {
		t.Errorf("compacted counter after watch 410 = %d, want 2", got)
	}
	// A malformed version is a client error, not a store error.
	getJSON(t, ts.URL+"/table?version=bogus", http.StatusBadRequest)
	if got := compacted.Value() + notFound.Value(); got != 3 {
		t.Errorf("400 moved a typed-error counter (total %d, want 3)", got)
	}
}

// TestHealthzTelemetry asserts /healthz embeds the counter/gauge summary
// when telemetry is on, and omits it when off.
func TestHealthzTelemetry(t *testing.T) {
	_, _, ts := newTestTier(t, wrangle.WithMetrics())
	body := getJSON(t, ts.URL+"/healthz", http.StatusOK)
	tel, ok := body["telemetry"].(map[string]any)
	if !ok {
		t.Fatalf("healthz has no telemetry section: %v", body)
	}
	if v, _ := tel[`wrangle_reactions_total{origin="run"}`].(float64); v != 1 {
		t.Errorf("telemetry run-reaction count = %v, want 1", tel)
	}

	_, _, tsOff := newTestTier(t)
	if body := getJSON(t, tsOff.URL+"/healthz", http.StatusOK); body["telemetry"] != nil {
		t.Error("healthz exposes telemetry without WithMetrics")
	}
}

// TestWatchFrameTelemetry asserts the SSE tier counts what it pushes:
// frames, frame bytes, and a delivery-latency observation per frame.
func TestWatchFrameTelemetry(t *testing.T) {
	s, st, ts := newTestTier(t, wrangle.WithMetrics())
	br, done := openWatch(t, ts.URL+"/watch")
	defer done()
	readSSE(t, br) // opening full frame
	if _, err := s.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	ev := readSSE(t, br)
	for ev.comment != "" {
		ev = readSSE(t, br)
	}
	// The tier counts a frame after flushing it, so the client can hold
	// the frame a moment before the counters move: wait for them.
	for deadline := time.Now().Add(5 * time.Second); st.watchLatency.Count() < 2 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := st.watchFrames.Value(); got < 2 {
		t.Errorf("watch frames counter = %d, want >= 2", got)
	}
	if st.watchBytes.Value() == 0 {
		t.Error("watch bytes counter did not move")
	}
	if got := st.watchLatency.Count(); got < 2 {
		t.Errorf("delivery latency observations = %d, want >= 2", got)
	}
}

// TestPprofGate pins the opt-in: /debug/pprof is absent by default and
// serves only when the -pprof flag set the state's field.
func TestPprofGate(t *testing.T) {
	_, _, ts := newTestTier(t, wrangle.WithMetrics())
	getJSON(t, ts.URL+"/debug/pprof/", http.StatusNotFound)

	// The flag mounts the routes at handler-build time, so flip it and
	// rebuild the mux the way runServe does with -pprof.
	_, st2, _ := newTestTier(t, wrangle.WithMetrics())
	st2.pprof = true
	ts2 := httptest.NewServer(st2.handler())
	defer ts2.Close()
	text, _ := getText(t, ts2.URL+"/debug/pprof/cmdline", http.StatusOK)
	if text == "" {
		t.Error("pprof cmdline served an empty body")
	}
}

// TestMetricsConcurrentScrape hammers /metrics while the session churns —
// the HTTP half of the registry's writer-vs-scrape race coverage (CI
// runs it under -race).
func TestMetricsConcurrentScrape(t *testing.T) {
	s, _, ts := newTestTier(t, wrangle.WithMetrics())
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, _ = s.Refresh(context.Background())
		}
	}()
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				text, _ := getText(t, ts.URL+"/metrics", http.StatusOK)
				if !strings.Contains(text, "wrangle_reactions_total") {
					t.Error("scrape lost the reactions family")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	churn.Wait()
}
