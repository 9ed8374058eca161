package engine

import (
	"context"
	"fmt"
	"time"
)

// Task is one node of an execution graph: a unit of work plus the IDs of
// the tasks that must finish before it may start.
type Task struct {
	ID   string
	Deps []string
	Run  func(ctx context.Context) error
}

// Graph is a task DAG. Build it with Add, execute it with Run. A Graph is
// single-shot: it describes one execution, not a long-lived scheduler.
type Graph struct {
	tasks   []*Task
	byID    map[string]*Task
	timings map[string]time.Duration
	observe TaskObserver
}

// TaskObserver receives one callback per completed task — its ID, wall
// clock, and error (nil on success, *PanicError when the task panicked).
// Called on the scheduler goroutine, so implementations must be cheap
// and need no synchronization against other callbacks from the same Run.
type TaskObserver func(id string, d time.Duration, err error)

// Observe installs fn as the graph's task observer. Set it before Run;
// a nil fn disables observation.
func (g *Graph) Observe(fn TaskObserver) { g.observe = fn }

// NewGraph returns an empty task graph.
func NewGraph() *Graph {
	return &Graph{byID: map[string]*Task{}}
}

// Add registers a task. IDs must be unique and run must be non-nil;
// dependencies may be registered after their dependents (they are resolved
// at Run).
func (g *Graph) Add(id string, run func(ctx context.Context) error, deps ...string) error {
	if id == "" {
		return fmt.Errorf("engine: task id must be non-empty")
	}
	if run == nil {
		return fmt.Errorf("engine: task %q has nil run", id)
	}
	if _, dup := g.byID[id]; dup {
		return fmt.Errorf("engine: duplicate task id %q", id)
	}
	t := &Task{ID: id, Deps: append([]string(nil), deps...), Run: run}
	g.tasks = append(g.tasks, t)
	g.byID[id] = t
	return nil
}

// AddFanOut registers n tasks "prefix[000]".."prefix[n-1]" sharing the
// same dependencies, each running run with its index — the shape of a
// sharded stage whose outputs a later barrier task (depending on the
// returned ids) merges. Indices are zero-padded so task ids sort in
// fan-out order.
func (g *Graph) AddFanOut(prefix string, n int, run func(ctx context.Context, i int) error, deps ...string) ([]string, error) {
	if n < 1 {
		return nil, fmt.Errorf("engine: fan-out %q needs at least one task, got %d", prefix, n)
	}
	if run == nil {
		return nil, fmt.Errorf("engine: fan-out %q has nil run", prefix)
	}
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		i := i
		ids[i] = fmt.Sprintf("%s[%03d]", prefix, i)
		if err := g.Add(ids[i], func(ctx context.Context) error { return run(ctx, i) }, deps...); err != nil {
			return nil, err
		}
	}
	return ids, nil
}

// Timings returns the wall-clock duration of every task that completed
// during Run, keyed by task ID. Tasks never dispatched (after a failure
// or cancellation) are absent. The map is owned by the graph and must
// only be read after Run returns; callers aggregating task times into
// stage times (e.g. RunStats) should copy what they need.
func (g *Graph) Timings() map[string]time.Duration { return g.timings }

// Run executes the graph on at most Workers(workers) concurrent
// goroutines and blocks until every task finished, one failed, or the
// context was cancelled.
//
// Scheduling is deterministic where it matters: ready tasks dispatch in
// registration order, so a sequential run (workers = 1) executes tasks in
// exactly the order they were added (topologically). With more workers
// only the interleaving changes — which tasks run is the same, and the
// caller's merge step decides result order.
//
// Failure semantics: the first task error (panics included, as
// *PanicError) wins; no new task starts after it, in-flight tasks are
// waited for, and the error is returned as-is. Cancellation is checked
// before every dispatch, so a cancelled context stops the fan-out at the
// next task boundary and returns ctx.Err(); nothing is checked once the
// last task has been dispatched, so a run whose every task ran and
// succeeded returns nil.
func (g *Graph) Run(ctx context.Context, workers int) error {
	// Resolve dependencies up front: unknown deps are a construction bug,
	// reported before any work starts.
	indeg := make(map[string]int, len(g.tasks))
	dependents := make(map[string][]*Task, len(g.tasks))
	for _, t := range g.tasks {
		for _, d := range t.Deps {
			if _, ok := g.byID[d]; !ok {
				return fmt.Errorf("engine: task %q depends on unknown task %q", t.ID, d)
			}
			indeg[t.ID]++
			dependents[d] = append(dependents[d], t)
		}
	}

	// ready is a FIFO in registration order; next indexes into it.
	var ready []*Task
	for _, t := range g.tasks {
		if indeg[t.ID] == 0 {
			ready = append(ready, t)
		}
	}

	type doneMsg struct {
		task *Task
		err  error
		dur  time.Duration
	}
	g.timings = make(map[string]time.Duration, len(g.tasks))
	done := make(chan doneMsg)
	maxWorkers := Workers(workers)
	var (
		next     int
		running  int
		finished int
		firstErr error
	)
	for {
		// Dispatch while slots are free, work is ready and nothing failed.
		for firstErr == nil && next < len(ready) && running < maxWorkers {
			if err := ctx.Err(); err != nil {
				firstErr = err
				break
			}
			t := ready[next]
			next++
			running++
			go func(t *Task) {
				start := time.Now()
				err := guard(func() error { return t.Run(ctx) })
				done <- doneMsg{task: t, err: err, dur: time.Since(start)}
			}(t)
		}
		if running == 0 {
			break
		}
		msg := <-done
		running--
		finished++
		// Recorded on the scheduler goroutine only: the per-task wall
		// clock feeds per-stage attribution in RunStats instead of being
		// discarded with the worker goroutine.
		g.timings[msg.task.ID] = msg.dur
		if g.observe != nil {
			g.observe(msg.task.ID, msg.dur, msg.err)
		}
		if msg.err != nil && firstErr == nil {
			firstErr = msg.err
		}
		for _, d := range dependents[msg.task.ID] {
			indeg[d.ID]--
			if indeg[d.ID] == 0 {
				ready = append(ready, d)
			}
		}
	}
	if firstErr != nil {
		return firstErr
	}
	if finished < len(g.tasks) {
		return fmt.Errorf("engine: dependency cycle among %d unreachable tasks", len(g.tasks)-finished)
	}
	return nil
}
