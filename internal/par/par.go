// Package par provides the repo's bounded parallel-execution primitives:
// a work-stealing parallel for-loop, an error-collecting variant with
// deterministic first-error semantics, fixed training-shard boundaries and
// a fixed-shape tree reduction.
//
// The package enforces one contract everywhere it is used: a resolved
// worker count of 1 runs the loop body sequentially in the calling
// goroutine — no goroutines, no channels, no scheduling — so callers can
// promise an "exact sequential path" when Workers=1. Higher worker counts
// may reorder execution but never reorder results: callers index into
// pre-sized output slots, and every numeric kernel built on this package
// preserves its per-element reduction order (see DESIGN.md, "Determinism
// contract").
package par

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Resolve normalizes a Workers configuration value: n >= 1 is used as-is;
// zero and negative values mean "all cores", runtime.GOMAXPROCS(0).
func Resolve(n int) int {
	if n >= 1 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ParallelWorkThreshold is the approximate per-call operation count below
// which spawning goroutines costs more than it saves (goroutine startup is
// ~µs each). Numeric kernels route their worker counts through WorkersFor
// so small inputs always take the exact sequential path.
const ParallelWorkThreshold = 1 << 15

// WorkersFor resolves a Workers configuration value (Resolve semantics) and
// then degrades it to 1 when the kernel's total operation count is below
// ParallelWorkThreshold. This is the one place the "too small to
// parallelize" decision lives; TestWorkersForThreshold pins the boundary.
func WorkersFor(workers int, work int64) int {
	workers = Resolve(workers)
	if workers > 1 && work < ParallelWorkThreshold {
		return 1
	}
	return workers
}

// TaskPanic wraps a panic raised inside a parallel task so the caller can
// tell which index failed. When several tasks panic concurrently, the one
// with the smallest index is kept.
type TaskPanic struct {
	Index int
	Value any
}

// String implements fmt.Stringer for panic output readability.
func (p TaskPanic) String() string {
	return fmt.Sprintf("par: task %d panicked: %v", p.Index, p.Value)
}

// ForEach runs fn(i) for every i in [0, n) using up to workers goroutines
// (workers <= 0 means GOMAXPROCS). With a resolved worker count of 1 the
// calls happen in index order in the calling goroutine — and, unlike the
// error-collecting variant, without wrapping fn, so a stable fn value makes
// the sequential path allocation-free (the gradient-shard training loops
// rely on this for their steady-state budgets). Task panics from worker
// goroutines are re-raised in the caller as a TaskPanic.
func ForEach(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if w := Resolve(workers); w == 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	_ = ForEachErr(workers, n, func(i int) error {
		fn(i)
		return nil
	})
}

// ForEachErr is ForEach for fallible tasks. After the first task error the
// pool stops claiming new indices (cancellation); every worker still
// finishes the index it already claimed. Among the tasks that ran, the
// error with the smallest index is returned — since index 0..workers-1 are
// always claimed before any cancellation can be observed, an error at
// index 0 is reported exactly as the sequential loop would report it. With
// a resolved worker count of 1 this is precisely the sequential
// loop-and-return-early semantics.
func ForEachErr(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Resolve(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next atomic.Int64 // next index to claim
		stop atomic.Bool  // set after any error or panic

		mu       sync.Mutex
		errIdx   = n
		firstErr error
		panIdx   = n
		panVal   any
		panicked bool
	)
	runOne := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				stop.Store(true)
				mu.Lock()
				if !panicked || i < panIdx {
					panicked, panIdx, panVal = true, i, r
				}
				mu.Unlock()
			}
		}()
		if err := fn(i); err != nil {
			stop.Store(true)
			mu.Lock()
			if i < errIdx {
				errIdx, firstErr = i, err
			}
			mu.Unlock()
		}
	}

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				// Claim before checking stop: each worker's first claim
				// always runs, so indices 0..workers-1 are never skipped
				// and the lowest-index error is reported deterministically.
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				runOne(i)
				if stop.Load() {
					return
				}
			}
		}()
	}
	wg.Wait()
	if panicked {
		panic(TaskPanic{Index: panIdx, Value: panVal})
	}
	return firstErr
}

// ShardBounds computes the fixed minibatch shard boundaries used by the
// data-parallel training loops: len(result)-1 contiguous shards over [0, n),
// shard s covering [result[s], result[s+1]).
//
// The shard count is a pure function of the CONFIGURED shard count and the
// input size — never of the worker pool, GOMAXPROCS, or the WorkersFor
// small-input threshold — so the shard shape (and therefore every gradient
// bit) is identical no matter how many workers execute the shards. The
// effective count is min(shards, n/minRows) clamped to at least 1: minRows
// keeps every shard large enough for per-shard batch statistics (BatchNorm
// needs >= 2 rows to stay on its training path). Shard s starts at s*n/eff;
// buf is reused when it has capacity.
func ShardBounds(buf []int, n, shards, minRows int) []int {
	eff := shards
	if minRows > 0 && eff > n/minRows {
		eff = n / minRows
	}
	if eff < 1 {
		eff = 1
	}
	if cap(buf) < eff+1 {
		buf = make([]int, eff+1)
	}
	buf = buf[:eff+1]
	for s := 0; s <= eff; s++ {
		buf[s] = s * n / eff
	}
	return buf
}

// TreeReduce merges n slots pairwise with a fixed-shape binary tree,
// leaving the combined result in slot 0. At stride d (1, 2, 4, ...) every
// slot i with i%(2d) == 0 and i+d < n absorbs slot i+d via combine(i, i+d).
// The combine ORDER depends only on n: levels run strictly one after
// another (each level's ForEach is a barrier), and within a level the pairs
// touch disjoint slots, so elementwise combines produce bit-identical
// results for every worker count — the gradient-merge half of the training
// determinism contract (DESIGN.md §5). With a resolved worker count of 1
// the combines run sequentially in index order with no goroutines and no
// per-call allocations (given a stable combine value).
func TreeReduce(workers, n int, combine func(dst, src int)) {
	workers = Resolve(workers)
	for stride := 1; stride < n; stride *= 2 {
		step := 2 * stride
		pairs := (n - stride + step - 1) / step
		if workers == 1 || pairs == 1 {
			for p := 0; p < pairs; p++ {
				combine(p*step, p*step+stride)
			}
			continue
		}
		d := stride
		ForEach(workers, pairs, func(p int) { combine(p*2*d, p*2*d+d) })
	}
}
