package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval recorded by the harness around a call into
// the program. Spans of one operation share Op; Parent is the span that
// caused this one (0 for a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"` // since the tracer's epoch
	DurUS   int64  `json:"dur_us"`
}

// tracer keeps spans in memory until the workload ends. A nil tracer
// records nothing, so untraced runs pay one nil check per span.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its id (0 on a nil tracer).
func (t *tracer) add(parent, op int, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		StartUS: start.Sub(t.epoch).Microseconds(),
		DurUS:   end.Sub(start).Microseconds(),
	})
	return id
}

// open reserves a root span whose children are recorded before it ends;
// close fills in its interval.
func (t *tracer) open(op int, name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Op: op, Name: name})
	return len(t.spans)
}

func (t *tracer) close(id int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.StartUS = start.Sub(t.epoch).Microseconds()
	s.DurUS = end.Sub(start).Microseconds()
}

// spanSummary is the per-name aggregate of a trace: how many spans, the
// median duration and the median self time (duration minus the part of
// the interval the span's children cover).
type spanSummary struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	P50MS  float64 `json:"p50_ms"`
	SelfMS float64 `json:"self_p50_ms"`
}

// summarize folds the trace into per-name medians, in first-seen order.
func (t *tracer) summarize() []spanSummary {
	if t == nil {
		return nil
	}
	covered := make(map[int]int64, len(t.spans)) // parent id -> µs its children cover
	for _, s := range t.spans {
		if s.Parent == 0 {
			continue
		}
		p := t.spans[s.Parent-1]
		lo, hi := max(s.StartUS, p.StartUS), min(s.StartUS+s.DurUS, p.StartUS+p.DurUS)
		if hi > lo {
			// Sibling spans of one op never overlap here (one goroutine
			// drives the op), so summing clipped intervals is exact.
			covered[s.Parent] += hi - lo
		}
	}
	var order []string
	dur := map[string][]float64{}
	self := map[string][]float64{}
	for _, s := range t.spans {
		if _, seen := dur[s.Name]; !seen {
			order = append(order, s.Name)
		}
		dur[s.Name] = append(dur[s.Name], float64(s.DurUS)/1000)
		self[s.Name] = append(self[s.Name], float64(s.DurUS-covered[s.ID])/1000)
	}
	out := make([]spanSummary, 0, len(order))
	for _, n := range order {
		out = append(out, spanSummary{Name: n, Count: len(dur[n]), P50MS: median(dur[n]), SelfMS: median(self[n])})
	}
	return out
}

// write dumps the trace as one JSON document.
func (t *tracer) write(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(map[string]any{"workload": workload, "seed": seed, "spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
