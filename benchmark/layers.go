package main

import (
	"fmt"
	"io"
	"runtime"
	"text/tabwriter"
)

// endToEnd computes the gated metrics of an untraced pass.
func endToEnd(res *result) map[string]float64 {
	m := map[string]float64{
		"setup_s":   median(res.setupS),
		"op_p50_ms": median(res.opMS),
	}
	if res.busy > 0 {
		m["ops_per_s"] = float64(len(res.opMS)) / res.busy.Seconds()
	}
	return m
}

// pathItem says how often, and how many at a time, one op of a workload
// makes the call a probe times: on the op's blocking path the probe
// counts times / parallel.
type pathItem struct {
	probe    string
	times    float64
	parallel float64
}

// onPath lists the probes on the blocking path of one op of the
// workload. Fan-outs run min(workers, tasks) at a time; everything else
// is serial.
func onPath(workload string, nSources float64, workers int) []pathItem {
	w := float64(workers)
	shards := min(w, fullShards)
	one := func(names ...string) []pathItem {
		var out []pathItem
		for _, n := range names {
			out = append(out, pathItem{n, 1, 1})
		}
		return out
	}
	switch workload {
	case "cold.10k":
		return append([]pathItem{{"chain_ms_per_source", nSources, min(w, nSources)}},
			one("fd_repair_ms", "er_prepare_ms", "er_plan_ms", "er_resolve_ms", "fusion_trust_ms", "fusion_fuse_ms", "serve_publish_ms")...)
	case "refresh.1k", "serve.sse.1k":
		return one("chain_ms_per_source", "fd_repair_ms", "er_prepare_ms", "er_plan_ms", "er_resolve_ms",
			"fusion_trust_ms", "fusion_fuse_ms", "serve_publish_ms")
	case "refresh.10k":
		return append(one("chain_ms_per_source", "fd_repair_ms", "er_prepare_ms", "er_plan_ms"),
			pathItem{"er_resolve_ms", 1, shards}, pathItem{"er_merge_roots_ms", 1, 1}, pathItem{"fusion_trust_ms", 1, 1},
			pathItem{"fusion_fuse_ms", 1, shards}, pathItem{"fusion_merge_ms", 1, 1}, pathItem{"serve_publish_ms", 1, 1},
			pathItem{"wal_append_ms", 1, 1})
	case "feedback.10k":
		return []pathItem{{"fusion_trust_ms", 1, 1}, {"fusion_fuse_ms", 1, shards}, {"fusion_merge_ms", 1, 1},
			{"serve_publish_ms", 1, 1}, {"wal_append_ms", 1, 1}}
	case "restart.10k":
		return one("wal_replay_ms", "core_log_decode_ms")
	}
	return nil
}

// stageProbes pairs each stage of the program's own ReactStats.Stages
// with the probes that time the same calls from outside.
var stageProbes = []struct {
	stage  string
	probes []string
}{
	{"replan", []string{"fd_repair_ms", "er_prepare_ms", "er_plan_ms"}},
	{"resolve", []string{"er_resolve_ms"}},
	{"trust", []string{"er_merge_roots_ms", "fusion_trust_ms"}},
	{"fuse", []string{"fusion_fuse_ms"}},
	{"merge", []string{"fusion_merge_ms"}},
}

// perLayer folds a traced pass and its probes into the per-layer metrics
// and prints the layer table: each probe on the op's blocking path, then
// what the probes leave unattributed, so the rows add up to the traced
// op median.
func perLayer(out io.Writer, res *result, pv map[string]float64) map[string]float64 {
	m := map[string]float64{}
	for k, v := range pv {
		m[k] = v
	}
	traced := median(res.opMS)
	m["traced_op_p50_ms"] = traced
	m["deliver_ms"] = median(res.deliverMS)
	if len(res.gapMS) > 0 {
		m["core_publish_gap_ms"] = median(res.gapMS)
	} else {
		m["core_publish_gap_ms"] = pv["probe_publish_gap_ms"]
	}

	// process: the harness process, which the program runs inside; for
	// serve.sse.1k the server child's CPU and RSS are added.
	wall := res.procEnd.at.Sub(res.procStart.at)
	ops := float64(max(len(res.opMS), 1))
	nproc := float64(runtime.NumCPU())
	if wall > 0 {
		m["cpu_util"] = (res.procEnd.cpu - res.procStart.cpu + res.childCPU).Seconds() / wall.Seconds() / nproc
	}
	m["alloc_mb_per_op"] = float64(res.procEnd.alloc-res.procStart.alloc) / (1 << 20) / ops
	m["gc_pause_ms_total"] = ms(res.procEnd.gcPause - res.procStart.gcPause)
	m["heap_live_mb_start"] = res.heapStartMB
	m["heap_live_mb_end"] = res.heapEndMB
	m["rss_peak_mb"] = float64(max(res.procEnd.rssKB, res.childRSSKB)) / 1024

	tw := tabwriter.NewWriter(out, 0, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "layer probe\tp50 ms\ttimes\tparallel\ton path ms\tshare\t\n")
	sum := 0.0
	for _, it := range onPath(res.name, pv["sources"], runtime.GOMAXPROCS(0)) {
		on := pv[it.probe] * it.times / it.parallel
		sum += on
		fmt.Fprintf(tw, "%s\t%.3f\t%.0f\t%.0f\t%.3f\t%.1f%%\t\n", it.probe, pv[it.probe], it.times, it.parallel, on, 100*on/traced)
	}
	m["unattributed_ms"] = traced - sum
	fmt.Fprintf(tw, "unattributed_ms\t\t\t\t%.3f\t%.1f%%\t\n", traced-sum, 100*(traced-sum)/traced)
	fmt.Fprintf(tw, "traced_op_p50_ms\t\t\t\t%.3f\t100.0%%\t\n", traced)
	tw.Flush()
	if sum > 1.1*traced {
		fmt.Fprintf(out, "OVER-COUNT: layer probes sum to %.3f ms, more than 1.1 x the traced op median %.3f ms\n", sum, traced)
	}

	fmt.Fprintf(out, "counts:")
	for _, k := range []string{"sources", "chain_rows_out", "fd_repairs", "er_candidate_pairs", "fusion_claims",
		"trust_components", "changed_pages", "shared_pages", "changed_records", "wal_kb_per_version", "wal_log_mb"} {
		fmt.Fprintf(out, " %s=%.4g", k, pv[k])
	}
	fmt.Fprintln(out)

	// The cross-check: where the program reports its own stage times, a
	// probe that disagrees with them is not representative of the
	// in-pipeline call and must not be trusted blind.
	if _, sharded := res.stages["trust"]; sharded {
		tw = tabwriter.NewWriter(out, 0, 4, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintf(tw, "stage\tReactStats p50 ms\tprobes p50 ms\tdiff\t\n")
		for _, sp := range stageProbes {
			samples, ok := res.stages[sp.stage]
			if !ok {
				continue
			}
			stage, probe := median(samples), 0.0
			for _, p := range sp.probes {
				probe += pv[p]
			}
			flag := ""
			if diff := (probe - stage) / stage; diff > 0.25 || diff < -0.25 {
				flag = "  DISAGREE >25%"
			}
			fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%+.0f%%%s\t\n", sp.stage, stage, probe, 100*(probe-stage)/stage, flag)
		}
		tw.Flush()
	}
	return m
}
