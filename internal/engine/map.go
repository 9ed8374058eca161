package engine

import (
	"context"
	"fmt"
)

// batchesPerWorker oversubscribes the partition count so a slow batch at
// the tail does not leave the other workers idle: with k batches per
// worker the worst-case idle tail shrinks to ~1/k of the work.
const batchesPerWorker = 4

// Map applies fn to every index in [0, n) on at most Workers(workers)
// goroutines. Contiguous index ranges are batched per stage so per-item
// scheduling overhead amortises across a batch. fn writes results into
// caller-owned slots — Map guarantees every index is visited exactly once
// before returning nil, so indexing a pre-sized results slice is
// race-free and ordered by construction.
//
// The first fn error (or recovered panic) stops the fan-out: no new batch
// starts, in-flight batches finish their current item, and that error is
// returned. Cancellation is checked between items and between batches.
func Map(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	w := Workers(workers)
	parts := partition(n, w*batchesPerWorker)
	g := NewGraph()
	for bi, p := range parts {
		lo, hi := p[0], p[1]
		if err := g.Add(fmt.Sprintf("batch-%03d", bi), func(ctx context.Context) error {
			for i := lo; i < hi; i++ {
				if err := ctx.Err(); err != nil {
					return err
				}
				if err := fn(ctx, i); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return g.Run(ctx, w)
}

// partition splits [0, total) into at most n contiguous, non-empty
// ranges; n clamps to [1, total].
func partition(total, n int) [][2]int {
	if n < 1 {
		n = 1
	}
	if n > total {
		n = total
	}
	var out [][2]int
	if total == 0 {
		return out
	}
	size := (total + n - 1) / n
	for lo := 0; lo < total; lo += size {
		hi := lo + size
		if hi > total {
			hi = total
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// MapSlice is Map over a slice with collected results: out[i] corresponds
// to items[i] regardless of which worker computed it or when it finished —
// the deterministic-merge contract callers rely on for byte-identical
// parallel runs. On error the partial results are discarded.
func MapSlice[S, T any](ctx context.Context, workers int, items []S, fn func(ctx context.Context, item S) (T, error)) ([]T, error) {
	out := make([]T, len(items))
	err := Map(ctx, workers, len(items), func(ctx context.Context, i int) error {
		var err error
		out[i], err = fn(ctx, items[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
