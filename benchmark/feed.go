package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/wrangle"
)

// arrival is one watcher goroutine receiving one version.
type arrival struct {
	seq       uint64
	at        time.Time
	published time.Time
	evicted   bool
}

// feed is a set of change-feed subscribers, each draining its own
// Session.Watch channel on its own goroutine and reporting every receipt.
type feed struct {
	n        int
	arrivals chan arrival
	done     chan struct{}
	cancels  []wrangle.CancelFunc
	wg       sync.WaitGroup
}

// openFeed subscribes n watchers from just after version from.
func openFeed(s *wrangle.Session, from uint64, n int) (*feed, error) {
	// Every op awaits all n receipts before the next op starts, so at
	// most n arrivals are ever outstanding; 2n leaves room for an
	// eviction notice per watcher.
	f := &feed{n: n, arrivals: make(chan arrival, 2*n), done: make(chan struct{})}
	for i := 0; i < n; i++ {
		ch, cancel, err := s.Watch(context.Background(), from)
		if err != nil {
			f.close()
			return nil, err
		}
		f.cancels = append(f.cancels, cancel)
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			for c := range ch {
				a := arrival{seq: c.Version(), at: time.Now(), published: c.View.PublishedAt(), evicted: c.Evicted}
				select {
				case f.arrivals <- a:
				case <-f.done:
					return
				}
			}
		}()
	}
	return f, nil
}

// await blocks until every watcher has received version seq and returns
// the last receipt. A watcher that reports any other version (a gap or
// an eviction) is an error.
func (f *feed) await(seq uint64) (arrival, error) {
	timeout := time.NewTimer(60 * time.Second)
	defer timeout.Stop()
	var last arrival
	for i := 0; i < f.n; i++ {
		select {
		case a := <-f.arrivals:
			if a.evicted || a.seq != seq {
				return last, fmt.Errorf("watcher received version %d (evicted=%v), want %d", a.seq, a.evicted, seq)
			}
			if a.at.After(last.at) {
				last = a
			}
		case <-timeout.C:
			return last, fmt.Errorf("version %d not delivered to all %d watchers within 60s", seq, f.n)
		}
	}
	return last, nil
}

// close detaches every watcher and waits for its goroutine to exit.
func (f *feed) close() {
	close(f.done)
	for _, c := range f.cancels {
		c()
	}
	f.wg.Wait()
}

// tableReader is the paced open-loop reader that runs beside refresh.1k:
// a `/table`-shaped read at a fixed rate, each timed from when it was
// due, so a stall delays — and is charged to — every read behind it.
type tableReader struct {
	stop    chan struct{}
	done    chan struct{}
	latency []time.Duration // completion - due time
	late    []time.Duration // actual start - due time: how late the generator ran
	sink    float64
}

// tableScan is the body of a `/table`-shaped read of one committed
// version: scan every row's price, filter the report to its price lines.
// The result only keeps the compiler from dropping the work.
func tableScan(t *wrangle.Table, rep *wrangle.Report) float64 {
	pc := t.Schema().Index("price")
	sum := 0.0
	for i := 0; i < t.Len(); i++ {
		if val := t.Row(i)[pc]; val.IsNumeric() {
			sum += val.FloatVal()
		}
	}
	return sum + float64(len(rep.Filter("prices", "price").Lines))
}

func startTableReader(s *wrangle.Session, perSecond int) *tableReader {
	r := &tableReader{stop: make(chan struct{}), done: make(chan struct{})}
	interval := time.Second / time.Duration(perSecond)
	go func() {
		defer close(r.done)
		start := time.Now()
		for k := 0; ; k++ {
			due := start.Add(time.Duration(k) * interval)
			if d := time.Until(due); d > 0 {
				select {
				case <-time.After(d):
				case <-r.stop:
					return
				}
			}
			select {
			case <-r.stop:
				return
			default:
			}
			begin := time.Now()
			v, err := s.View()
			if err != nil {
				return
			}
			r.sink += tableScan(v.Table(), v.Report())
			r.latency = append(r.latency, time.Since(due))
			r.late = append(r.late, begin.Sub(due))
		}
	}()
	return r
}

// halt stops the reader and waits for its goroutine.
func (r *tableReader) halt() {
	close(r.stop)
	<-r.done
}
