package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

// ms converts a duration to float milliseconds, keeping every digit the
// clock gave us.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median returns the 50th percentile of xs (0 for no samples). xs is not
// modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// tail returns the highest percentile of xs that still has ten samples
// beyond it, and which percentile that was. With fewer than twenty
// samples that percentile would lie below the median; both results are
// then 0.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n < 20 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[n-11], 100 * float64(n-10) / float64(n)
}

// procSample is one reading of the harness process's resource counters.
type procSample struct {
	at      time.Time
	cpu     time.Duration // user + system
	alloc   uint64        // cumulative bytes allocated
	gcPause time.Duration // cumulative stop-the-world pause
	rssKB   int64         // peak resident set so far
}

func sampleProc() procSample {
	var ru syscall.Rusage
	// Getrusage on RUSAGE_SELF cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procSample{
		at:      time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:   m.TotalAlloc,
		gcPause: time.Duration(m.PauseTotalNs),
		rssKB:   ru.Maxrss,
	}
}

// heapLiveMB forces a collection and returns the live heap in MB.
func heapLiveMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
