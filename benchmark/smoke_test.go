package main

import (
	"bytes"
	"encoding/json"
	"io"
	"path/filepath"
	"regexp"
	"testing"
)

func testSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmoke runs every workload, untraced and traced, on shrunken tiers
// with tiny op counts: the harness must build, every output check must
// hold, and every metric BENCHMARK.json declares must be measured.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped under -short")
	}
	spec := testSpec(t)
	dir := t.TempDir()
	o := options{seed: 3, seconds: 0.2, trace: true, shrink: 20,
		scratch: dir, binDir: dir, outDir: filepath.Join(dir, "out")}
	for _, w := range workloads {
		rep, err := measure(spec, o, w.name, w.run, true, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d notes=%v", w.name, rep.Correct, rep.Attempted, rep.Failed, rep.Notes)
		}
		if rep.Fingerprint == "" {
			t.Errorf("%s: no fingerprint", w.name)
		}
		for _, m := range spec.EndToEnd {
			if v, ok := rep.Metrics[m.Name]; !ok || v.Value <= 0 || v.Unit != m.Unit {
				t.Errorf("%s: end-to-end metric %s = %+v (emitted: %v)", w.name, m.Name, v, ok)
			}
		}
		if len(rep.Metrics) != len(spec.EndToEnd) || len(rep.Layers) != len(spec.PerLayer) {
			t.Errorf("%s: emitted %d end-to-end and %d per-layer metrics, BENCHMARK.json declares %d and %d",
				w.name, len(rep.Metrics), len(rep.Layers), len(spec.EndToEnd), len(spec.PerLayer))
		}
		for _, m := range spec.PerLayer {
			if _, ok := rep.Layers[m.Name]; !ok {
				t.Errorf("%s: per-layer metric %s not emitted", w.name, m.Name)
			}
		}
	}
}

// TestContractLine drives the command-line path the driver uses and holds
// its last line to the contract: exactly correct, attempted, failed and
// metrics, the metrics exactly the declared ones.
func TestContractLine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload; skipped under -short")
	}
	spec := testSpec(t)
	for trace, declared := range map[string][]metricSpec{"0": spec.EndToEnd, "1": spec.PerLayer} {
		dir := t.TempDir()
		var stdout, stderr bytes.Buffer
		code := realMain([]string{"--workload", "refresh.1k", "--seed", "5", "--seconds", "0.2", "--trace", trace, "-shrink", "4",
			"-spec", filepath.Join("..", "BENCHMARK.json"), "-scratch", dir, "-out", filepath.Join(dir, "out")}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, stderr.String())
		}
		lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
		var last map[string]json.RawMessage
		if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
			t.Fatalf("trace %s: last line is not JSON: %v", trace, err)
		}
		for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
			if _, ok := last[k]; !ok {
				t.Errorf("trace %s: last line lacks %q", trace, k)
			}
		}
		if len(last) != 4 {
			t.Errorf("trace %s: last line has %d keys, want 4", trace, len(last))
		}
		var metrics map[string]metricValue
		if err := json.Unmarshal(last["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(declared) {
			t.Errorf("trace %s: %d metrics emitted, %d declared", trace, len(metrics), len(declared))
		}
		for _, m := range declared {
			if got, ok := metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("trace %s: metric %s: emitted %+v (present: %v), declared unit %s", trace, m.Name, got, ok, m.Unit)
			}
		}
	}
}

// TestDeclaration holds BENCHMARK.json to the shape the driver accepts
// and to the suite the harness actually has.
func TestDeclaration(t *testing.T) {
	spec := testSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the harness %q", i, w.Name, workloads[i].name)
		}
		if !name.MatchString(w.Name) || seen[w.Name] || len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: bad or repeated name, or why of %d characters", w.Name, len(w.Why))
		}
		seen[w.Name] = true
	}
	hasSetup := false
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !name.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric %q: bad or repeated name", m.Name)
		}
		seen[m.Name] = true
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %q: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %q: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric with unit s, better lower")
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", spec.RunSeconds)
	}
}
