package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersNormalisation(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	if got := Workers(1); got != 1 {
		t.Errorf("Workers(1) = %d", got)
	}
	for _, n := range []int{0, -1, -100} {
		if got := Workers(n); got < 1 {
			t.Errorf("Workers(%d) = %d, want >= 1 (auto)", n, got)
		}
	}
}

func TestGraphRunsAllTasksRespectingDeps(t *testing.T) {
	g := NewGraph()
	var mu sync.Mutex
	var order []string
	record := func(id string) func(context.Context) error {
		return func(context.Context) error {
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
			return nil
		}
	}
	// Diamond: a → (b, c) → d.
	if err := g.Add("a", record("a")); err != nil {
		t.Fatal(err)
	}
	if err := g.Add("b", record("b"), "a"); err != nil {
		t.Fatal(err)
	}
	if err := g.Add("c", record("c"), "a"); err != nil {
		t.Fatal(err)
	}
	if err := g.Add("d", record("d"), "b", "c"); err != nil {
		t.Fatal(err)
	}
	if err := g.Run(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
	if len(order) != 4 {
		t.Fatalf("ran %d tasks, want 4 (%v)", len(order), order)
	}
	pos := map[string]int{}
	for i, id := range order {
		pos[id] = i
	}
	if pos["a"] != 0 || pos["d"] != 3 {
		t.Errorf("barrier violated: order %v", order)
	}
}

func TestGraphSequentialOrderIsRegistrationOrder(t *testing.T) {
	g := NewGraph()
	var order []string
	for _, id := range []string{"t1", "t2", "t3", "t4"} {
		id := id
		if err := g.Add(id, func(context.Context) error {
			order = append(order, id)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Run(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ","); got != "t1,t2,t3,t4" {
		t.Errorf("sequential order = %s", got)
	}
}

func TestGraphBoundsConcurrency(t *testing.T) {
	const workers = 3
	g := NewGraph()
	var cur, peak int64
	for i := 0; i < 24; i++ {
		if err := g.Add(fmt.Sprintf("t%d", i), func(context.Context) error {
			n := atomic.AddInt64(&cur, 1)
			for {
				p := atomic.LoadInt64(&peak)
				if n <= p || atomic.CompareAndSwapInt64(&peak, p, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			atomic.AddInt64(&cur, -1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Run(context.Background(), workers); err != nil {
		t.Fatal(err)
	}
	if p := atomic.LoadInt64(&peak); p > workers {
		t.Errorf("peak concurrency %d exceeds worker bound %d", p, workers)
	}
}

func TestGraphFirstErrorStopsDispatch(t *testing.T) {
	g := NewGraph()
	boom := errors.New("boom")
	var started int64
	if err := g.Add("bad", func(context.Context) error { return boom }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := g.Add(fmt.Sprintf("after%d", i), func(context.Context) error {
			atomic.AddInt64(&started, 1)
			return nil
		}, "bad"); err != nil {
			t.Fatal(err)
		}
	}
	err := g.Run(context.Background(), 4)
	if !errors.Is(err, boom) {
		t.Fatalf("Run err = %v, want boom", err)
	}
	if n := atomic.LoadInt64(&started); n != 0 {
		t.Errorf("%d dependents of the failed task started", n)
	}
}

func TestGraphPanicIsolation(t *testing.T) {
	g := NewGraph()
	if err := g.Add("ok", func(context.Context) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := g.Add("panics", func(context.Context) error { panic("poisoned source") }); err != nil {
		t.Fatal(err)
	}
	err := g.Run(context.Background(), 2)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Run err = %v, want *PanicError", err)
	}
	if pe.Value != "poisoned source" || len(pe.Stack) == 0 {
		t.Errorf("panic error lost its payload: %v", pe)
	}
}

func TestGraphCancellationStopsFanOut(t *testing.T) {
	g := NewGraph()
	ctx, cancel := context.WithCancel(context.Background())
	var ran int64
	if err := g.Add("canceller", func(context.Context) error {
		cancel()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := g.Add(fmt.Sprintf("t%d", i), func(context.Context) error {
			atomic.AddInt64(&ran, 1)
			return nil
		}, "canceller"); err != nil {
			t.Fatal(err)
		}
	}
	err := g.Run(ctx, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run err = %v, want context.Canceled", err)
	}
	if n := atomic.LoadInt64(&ran); n != 0 {
		t.Errorf("%d tasks started after cancellation", n)
	}
}

// TestGraphCancelledByLastTaskSucceeds pins what a caller that installs
// state in its graph's last task relies on: Run checks the context only
// before a dispatch, so a cancellation that lands once the last task
// started is never reported — the last task's effects and a nil error go
// together.
func TestGraphCancelledByLastTaskSucceeds(t *testing.T) {
	g := NewGraph()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := g.Add("first", func(context.Context) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := g.Add("last", func(context.Context) error {
		cancel()
		return nil
	}, "first"); err != nil {
		t.Fatal(err)
	}
	if err := g.Run(ctx, 2); err != nil {
		t.Fatalf("Run err = %v after the last task ran, want nil", err)
	}
}

func TestGraphRejectsBadConstruction(t *testing.T) {
	g := NewGraph()
	if err := g.Add("", func(context.Context) error { return nil }); err == nil {
		t.Error("empty id accepted")
	}
	if err := g.Add("x", nil); err == nil {
		t.Error("nil run accepted")
	}
	if err := g.Add("x", func(context.Context) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := g.Add("x", func(context.Context) error { return nil }); err == nil {
		t.Error("duplicate id accepted")
	}
}

func TestGraphUnknownDependency(t *testing.T) {
	g := NewGraph()
	if err := g.Add("a", func(context.Context) error { return nil }, "ghost"); err != nil {
		t.Fatal(err)
	}
	if err := g.Run(context.Background(), 1); err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Errorf("Run err = %v, want unknown-dependency error naming ghost", err)
	}
}

func TestGraphDetectsCycle(t *testing.T) {
	g := NewGraph()
	if err := g.Add("a", func(context.Context) error { return nil }, "b"); err != nil {
		t.Fatal(err)
	}
	if err := g.Add("b", func(context.Context) error { return nil }, "a"); err != nil {
		t.Fatal(err)
	}
	if err := g.Run(context.Background(), 2); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("Run err = %v, want cycle error", err)
	}
}

func TestMapVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 8, 100} {
		n := 237
		visits := make([]int64, n)
		err := Map(context.Background(), workers, n, func(_ context.Context, i int) error {
			atomic.AddInt64(&visits[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, v)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	if err := Map(context.Background(), 4, 0, func(context.Context, int) error {
		t.Fatal("fn called for empty input")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestMapSliceOrdersResults(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	out, err := MapSlice(context.Background(), 8, items, func(_ context.Context, x int) (string, error) {
		if x%7 == 0 {
			time.Sleep(time.Duration(x%3) * time.Millisecond) // scramble completion order
		}
		return fmt.Sprintf("v%d", x), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != fmt.Sprintf("v%d", i) {
			t.Fatalf("out[%d] = %s", i, v)
		}
	}
}

func TestGraphTimingsRecorded(t *testing.T) {
	g := NewGraph()
	if err := g.Add("fast", func(context.Context) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := g.Add("slow", func(context.Context) error {
		time.Sleep(20 * time.Millisecond)
		return nil
	}, "fast"); err != nil {
		t.Fatal(err)
	}
	if err := g.Run(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	tm := g.Timings()
	if len(tm) != 2 {
		t.Fatalf("Timings = %v, want both tasks", tm)
	}
	if tm["slow"] < 20*time.Millisecond {
		t.Errorf("slow task timed at %s, want >= 20ms", tm["slow"])
	}
}

func TestGraphTimingsOmitUndispatched(t *testing.T) {
	boom := errors.New("boom")
	g := NewGraph()
	if err := g.Add("fail", func(context.Context) error { return boom }); err != nil {
		t.Fatal(err)
	}
	if err := g.Add("never", func(context.Context) error { return nil }, "fail"); err != nil {
		t.Fatal(err)
	}
	if err := g.Run(context.Background(), 1); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	tm := g.Timings()
	if _, ok := tm["never"]; ok {
		t.Error("undispatched task should have no timing")
	}
	if _, ok := tm["fail"]; !ok {
		t.Error("failed task should still be timed")
	}
}

func TestMapSliceFirstError(t *testing.T) {
	boom := errors.New("boom")
	_, err := MapSlice(context.Background(), 4, []int{1, 2, 3, 4}, func(_ context.Context, x int) (int, error) {
		if x == 3 {
			return 0, boom
		}
		return x, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestMapCancellationBetweenItems(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran int64
	err := Map(ctx, 1, 1000, func(_ context.Context, i int) error {
		if atomic.AddInt64(&ran, 1) == 5 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := atomic.LoadInt64(&ran); n >= 1000 {
		t.Errorf("map ran to completion (%d items) despite cancellation", n)
	}
}
