// Command benchmark is the repository's one measurement spine: six named
// workloads, the end-to-end metrics a user of the system feels, and a
// traced pass that attributes them to layers from outside. BENCHMARK.json
// at the repository root declares the workloads, the metrics and their
// regression bounds; see README.md beside this file.
//
//	benchmark -workload <name> -seed N -seconds S -trace 0|1
//
// prints, as the last line of standard output, one JSON object with the
// declared end-to-end metrics (-trace 0) or per-layer metrics (-trace 1).
// -workload all runs every workload and prints one JSON document;
// -agree runs the whole set twice and checks the two against the bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"text/tabwriter"
)

// options is one invocation's configuration.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	agree    bool
	scratch  string // durable logs and other per-run files
	binDir   string // where the built server binary is kept
	outDir   string
	shrink   int // tier divisor; only the smoke test sets it
}

// report is everything one workload produced in one invocation.
type report struct {
	Workload    string                 `json:"workload"`
	Correct     bool                   `json:"correct"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	Fingerprint string                 `json:"fingerprint"`
	Samples     int                    `json:"samples"`
	Metrics     map[string]metricValue `json:"metrics"`
	Extras      map[string]float64     `json:"reported_ungated,omitempty"`
	Layers      map[string]metricValue `json:"per_layer,omitempty"`
	Spans       []spanSummary          `json:"spans,omitempty"`
	Notes       []string               `json:"notes,omitempty"`
}

func (o options) env(tr *tracer) *env {
	e := &env{seed: o.seed, seconds: o.seconds, minOps: 10, warmup: 2, setups: 5, oracleOps: 10, refreshes: 8, probeReps: 10,
		shrink: o.shrink, scratch: o.scratch, binDir: o.binDir, tr: tr}
	if o.shrink > 1 {
		e.minOps, e.warmup, e.setups, e.oracleOps, e.refreshes, e.probeReps = 2, 1, 1, 2, 2, 2
	}
	if tr != nil {
		// The traced pass is for attribution, not for end-to-end numbers:
		// a quarter of the time, one set-up.
		e.seconds, e.setups = o.seconds/4, 1
	}
	return e
}

// measure runs one workload: the untraced pass unless only the traced
// one was asked for, and the traced pass with its probes when o.trace.
func measure(spec *benchSpec, o options, name string, run func(*env) (*result, error), both bool, out io.Writer) (*report, error) {
	rep := &report{Workload: name, Correct: true}
	fold := func(res *result) {
		rep.Correct = rep.Correct && res.correct()
		rep.Attempted += res.attempted
		rep.Failed += res.failed
		rep.Fingerprint = res.fingerprint
		rep.Notes = append(rep.Notes, res.notes...)
	}
	var untraced *result
	if !o.trace || both {
		res, err := run(o.env(nil))
		if err != nil {
			return nil, err
		}
		untraced = res
		fold(res)
		rep.Samples = len(res.opMS)
		if rep.Metrics, err = emit(spec.EndToEnd, endToEnd(res)); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		res.reportTail("op", "ms", res.opMS)
		rep.Extras = res.extras
		printEndToEnd(out, rep)
	}
	if o.trace {
		tr := newTracer()
		e := o.env(tr)
		res, err := run(e)
		if err != nil {
			return nil, err
		}
		fold(res)
		pv, err := runProbes(tr, res.probeOn, o.scratch, e.refreshes, e.probeReps)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintf(out, "\n%s: traced pass, %d ops; probes x%d on its final state\n", name, len(res.opMS), e.probeReps)
		computed := perLayer(out, res, pv)
		if rep.Layers, err = emit(spec.PerLayer, computed); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if attempts := res.shardsResolved + res.shardsReused; attempts > 0 {
			fmt.Fprintf(out, "shards resolved %d, reused %d of %d (reuse share %.2f)\n",
				res.shardsResolved, res.shardsReused, attempts, float64(res.shardsReused)/float64(attempts))
		}
		rep.Spans = tr.summarize()
		printSpans(out, rep.Spans)
		if untraced != nil {
			if rep.Extras == nil {
				rep.Extras = map[string]float64{}
			}
			rep.Extras["trace_overhead_ms"] = median(res.opMS) - median(untraced.opMS)
			fmt.Fprintf(out, "trace_overhead_ms %.3f (traced p50 %.3f - untraced p50 %.3f)\n",
				rep.Extras["trace_overhead_ms"], median(res.opMS), median(untraced.opMS))
		} else {
			rep.Samples = len(res.opMS)
		}
		path := filepath.Join(o.outDir, "trace-"+name+".json")
		if err := tr.write(path, name, o.seed); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "spans written to %s\n", path)
	}
	for _, n := range rep.Notes {
		fmt.Fprintf(out, "FAILED %s: %s\n", name, n)
	}
	return rep, nil
}

func printEndToEnd(out io.Writer, rep *report) {
	fmt.Fprintf(out, "\n%s: %d timed ops, %d attempted, %d failed, fingerprint %s\n",
		rep.Workload, rep.Samples, rep.Attempted, rep.Failed, rep.Fingerprint)
	tw := tabwriter.NewWriter(out, 0, 4, 2, ' ', 0)
	for _, name := range sortedKeys(rep.Metrics) {
		fmt.Fprintf(tw, "  %s\t%.4f\t%s\t(gated)\n", name, rep.Metrics[name].Value, rep.Metrics[name].Unit)
	}
	for _, name := range sortedKeys(rep.Extras) {
		fmt.Fprintf(tw, "  %s\t%.4f\t\t(reported)\n", name, rep.Extras[name])
	}
	tw.Flush()
}

func printSpans(out io.Writer, spans []spanSummary) {
	tw := tabwriter.NewWriter(out, 0, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "span\tcount\tp50 ms\tself p50 ms\t\n")
	for _, s := range spans {
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.3f\t\n", s.Name, s.Count, s.P50MS, s.SelfMS)
	}
	tw.Flush()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// header records where and on what the numbers were taken.
func header(o options) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"commit": commit, "seed": o.seed, "seconds": o.seconds,
	}
}

// runAll measures every workload and returns the reports in suite order.
func runAll(spec *benchSpec, o options, out io.Writer) ([]*report, error) {
	var reps []*report
	for _, w := range workloads {
		rep, err := measure(spec, o, w.name, w.run, true, out)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rep)
	}
	return reps, nil
}

// agree runs the whole set twice with the same seed and holds the two
// against each other: every end-to-end metric within its bound, every
// fingerprint identical.
func agree(spec *benchSpec, o options, out io.Writer) (bool, error) {
	o.trace = false
	first, err := runAll(spec, o, out)
	if err != nil {
		return false, err
	}
	second, err := runAll(spec, o, out)
	if err != nil {
		return false, err
	}
	ok := true
	tw := tabwriter.NewWriter(out, 0, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "\nworkload\tmetric\tfirst\tsecond\tdiff\tbound\t\n")
	for i, a := range first {
		b := second[i]
		for _, m := range spec.EndToEnd {
			x, y := a.Metrics[m.Name].Value, b.Metrics[m.Name].Value
			diff := math.Abs(x-y) / math.Min(x, y)
			verdict := ""
			if diff > m.Bound {
				verdict, ok = "DISAGREE", false
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.4f\t%.1f%%\t%.0f%%\t%s\n", a.Workload, m.Name, x, y, 100*diff, 100*m.Bound, verdict)
		}
		if a.Fingerprint != b.Fingerprint || !a.Correct || !b.Correct {
			fmt.Fprintf(tw, "%s\tfingerprint\t%s\t%s\t\t\tDISAGREE (correct: %v, %v)\n", a.Workload, a.Fingerprint, b.Fingerprint, a.Correct, b.Correct)
			ok = false
		}
	}
	tw.Flush()
	return ok, nil
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	trace := 0
	fs.StringVar(&o.workload, "workload", "all", "workload name from BENCHMARK.json, or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&o.seconds, "seconds", 0, "how long each timed loop measures (default: run_seconds of BENCHMARK.json)")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced pass and the layer probes")
	fs.BoolVar(&o.agree, "agree", false, "run the whole set twice and check the two agree within the bounds")
	fs.StringVar(&o.scratch, "scratch", ".bench_build", "directory for durable logs and the built server")
	fs.StringVar(&o.outDir, "out", filepath.Join("benchmark", "out"), "directory the span traces are written to")
	specPath := fs.String("spec", "BENCHMARK.json", "the benchmark declaration")
	fs.IntVar(&o.shrink, "shrink", 1, "divide every tier's size by this (the smoke test's knob; numbers taken with it are not the benchmark's)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	// The built server stays in the scratch directory between runs;
	// everything else a run writes goes into a directory of its own.
	o.binDir = o.scratch
	if err := os.MkdirAll(o.binDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if o.scratch, err = os.MkdirTemp(o.binDir, "run-"); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(o.scratch)
	hdr, _ := json.Marshal(header(o)) // a map of strings and numbers always marshals
	fmt.Fprintf(stdout, "benchmark %s\n", hdr)

	switch {
	case o.agree:
		ok, err := agree(spec, o, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		if !ok {
			fmt.Fprintln(stdout, "two runs of the same commit disagree")
			return 1
		}
		fmt.Fprintln(stdout, "two runs of the same commit agree within every bound")
		return 0
	case o.workload == "all":
		reps, err := runAll(spec, o, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		doc, err := json.Marshal(map[string]any{"header": header(o), "workloads": reps})
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintf(stdout, "\n%s\n", doc)
		return 0
	}
	for _, w := range workloads {
		if w.name != o.workload {
			continue
		}
		rep, err := measure(spec, o, w.name, w.run, false, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		metrics := rep.Metrics
		if o.trace {
			metrics = rep.Layers
		}
		line, err := json.Marshal(map[string]any{"correct": rep.Correct, "attempted": rep.Attempted, "failed": rep.Failed, "metrics": metrics})
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintf(stdout, "\n%s\n", line)
		return 0
	}
	fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", o.workload)
	return 2
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }
