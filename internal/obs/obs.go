// Package obs is the pipeline's dependency-free telemetry layer:
// atomic counters and gauges, fixed-bucket histograms and a named
// registry that renders Prometheus text exposition format. It exists so
// stage timings, watch fan-out, serve reads and WAL activity accumulate
// into an operable surface instead of evaporating after each call.
//
// Every metric type is safe to use through a nil pointer: a nil
// *Counter/*Gauge/*Histogram no-ops on write and returns zero on read,
// and a nil *Registry returns nil handles. Instrumented code therefore
// resolves its handles once and calls them unconditionally — with
// telemetry disabled the hot path pays a single predictable nil check,
// no interface dispatch, no allocation.
package obs

import (
	"math"
	"sort"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count, zero on a nil receiver.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds delta via CAS. No-op on a nil receiver.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value, zero on a nil receiver.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket cumulative histogram. Observations are a
// binary search over the bounds plus two atomic adds — allocation-free,
// safe for concurrent writers and concurrent scrapes.
type Histogram struct {
	bounds  []float64 // upper bounds, strictly increasing; +Inf implicit
	counts  []atomic.Int64
	n       atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
}

// NewHistogram returns a histogram with the given upper bucket bounds
// (strictly increasing; an +Inf overflow bucket is implicit). The bounds
// slice is not copied and must not be mutated afterwards.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records v. No-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v, i.e. le-bucket
	h.counts[i].Add(1)
	h.n.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations, zero on a nil receiver.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the sum of observed values, zero on a nil receiver.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Quantile estimates the q-th quantile (0 <= q <= 1) by linear
// interpolation within the bucket holding the target rank. Observations
// in the overflow bucket clamp to the highest finite bound. Returns 0
// on a nil or empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.n.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			if i >= len(h.bounds) { // overflow bucket: clamp
				if len(h.bounds) == 0 {
					return h.Sum() / float64(total)
				}
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			frac := (rank - float64(cum)) / float64(c)
			return lo + (h.bounds[i]-lo)*frac
		}
		cum += c
	}
	if len(h.bounds) == 0 {
		return 0
	}
	return h.bounds[len(h.bounds)-1]
}

// DurationBuckets is the default bound set for stage/task/latency
// histograms: 100µs to 10s, roughly 2.5x steps.
func DurationBuckets() []float64 {
	return []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
		0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
}

// SizeBuckets is the default bound set for byte-size histograms:
// 256B to 16MiB, 4x steps.
func SizeBuckets() []float64 {
	return []float64{256, 1 << 10, 4 << 10, 16 << 10, 64 << 10,
		256 << 10, 1 << 20, 4 << 20, 16 << 20}
}
