package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Job is one kernel call cut into parts that write disjoint outputs:
// Part(i, n) runs part i of n. A Job is a caller-owned record (a pointer to
// a struct holding the call's arguments), so handing it to a Team
// allocates nothing.
type Job interface {
	Part(i, n int)
}

// teamSpin bounds the runtime.Gosched rounds a waiting helper (or a
// joining caller) makes before it parks on its channel. A round yields the
// P to any runnable goroutine, so the spin never keeps other work off a
// core. The bound (0.4-1.2 ms on a 2-vCPU host, 90-300 ns a round)
// outlasts nearly every serial stretch between the split kernels of a
// training step: in BenchmarkGANEpoch5GC a helper parks one to three times
// per Fit at this bound and over a hundred times at 256 rounds, and the
// wake-ups made that Fit ~20% slower.
const teamSpin = 4096

// splitRuns counts the Runs, over every Team, that handed parts to
// helpers.
var splitRuns atomic.Int64

// SplitRuns returns how many Runs, over every Team of the process, have
// handed parts to helpers: a test of a split kernel's bits reads it to
// know that a split happened (a team that never splits passes any such
// test vacuously).
func SplitRuns() int64 { return splitRuns.Load() }

// Team is a fork-join team of goroutines that lives for one Fit: the
// caller plus Width()-1 helpers, each helper always running the same part
// index. Run hands one Job to the team, runs part 0 on the calling
// goroutine, and returns when every part is done. Helpers wait for work in
// a short Gosched loop and then park, so an idle team holds no P.
//
// A Team serves one caller at a time: Run must not be called concurrently
// or re-entered from a part. Close joins every helper; a nil Team, or one
// of width 1, runs every part inline on the caller with no goroutine.
type Team struct {
	width   int
	helpers []teamHelper

	job     Job
	parts   int
	pending atomic.Int32 // helper parts of the current Run not yet done
	closing atomic.Bool

	joinParked atomic.Bool   // the caller parked in join
	joinWake   chan struct{} // cap 1: the last helper's wake-up of a parked caller

	panicked []bool // per part, reset by each Run
	panics   []any

	wg sync.WaitGroup
}

// teamHelper is one helper's hand-off state.
type teamHelper struct {
	gen    atomic.Uint64 // bumped for every Run that gives this helper a part, and by Close
	parked atomic.Bool
	wake   chan struct{} // cap 1
}

// NewTeam starts a team of Resolve(workers) members: the caller and
// Resolve(workers)-1 helper goroutines. Close must be called to join them.
func NewTeam(workers int) *Team {
	w := Resolve(workers)
	t := &Team{
		width:    w,
		helpers:  make([]teamHelper, w-1),
		joinWake: make(chan struct{}, 1),
		panicked: make([]bool, w),
		panics:   make([]any, w),
	}
	t.wg.Add(w - 1)
	for h := range t.helpers {
		t.helpers[h].wake = make(chan struct{}, 1)
		go t.help(h + 1)
	}
	return t
}

// Width returns the team's member count, the caller included; 1 for a nil
// Team.
func (t *Team) Width() int {
	if t == nil {
		return 1
	}
	return t.width
}

// Run runs j.Part(i, n) for every i < n, part 0 on the calling goroutine
// and part i on helper i, and returns when all are done. n is capped at
// Width(); with n ≤ 1 the parts run inline. A panic in any part is
// re-raised, once every part has finished, as a TaskPanic carrying the
// lowest panicking part index.
func (t *Team) Run(n int, j Job) {
	n = min(n, t.Width())
	if n <= 1 {
		for i := 0; i < n; i++ {
			j.Part(i, n)
		}
		return
	}
	splitRuns.Add(1)
	t.job, t.parts = j, n
	t.pending.Store(int32(n - 1))
	for h := 0; h < n-1; h++ {
		t.helpers[h].post()
	}
	t.runPart(0)
	t.join()
	t.job = nil
	for i := 0; i < n; i++ {
		if t.panicked[i] {
			v := t.panics[i]
			clear(t.panicked)
			clear(t.panics)
			panic(TaskPanic{Index: i, Value: v})
		}
	}
}

// runPart runs part i of the current job, recording a panic instead of
// unwinding.
func (t *Team) runPart(i int) {
	defer func() {
		if r := recover(); r != nil {
			t.panicked[i], t.panics[i] = true, r
		}
	}()
	t.job.Part(i, t.parts)
}

// join waits until every helper part of the current Run is done: a short
// Gosched loop, then a park until the last helper wakes the caller.
func (t *Team) join() {
	for i := 0; t.pending.Load() != 0; i++ {
		if i < teamSpin {
			runtime.Gosched()
			continue
		}
		// Announce the park, then look again: either this load sees the
		// last helper's decrement or that helper sees the flag and sends.
		t.joinParked.Store(true)
		if t.pending.Load() != 0 {
			<-t.joinWake
		}
		t.joinParked.Store(false)
	}
}

// help is helper goroutine part's loop: wait for a Run (or Close), run its
// part, count it done.
func (t *Team) help(part int) {
	defer t.wg.Done()
	h := &t.helpers[part-1]
	var seen uint64
	for {
		seen = h.await(seen)
		if t.closing.Load() {
			return
		}
		t.runPart(part)
		if t.pending.Add(-1) == 0 && t.joinParked.Load() {
			select {
			case t.joinWake <- struct{}{}:
			default:
			}
		}
	}
}

// post hands the helper the current Run (or Close).
func (h *teamHelper) post() {
	h.gen.Add(1)
	if h.parked.Load() {
		select {
		case h.wake <- struct{}{}:
		default: // a wake-up is already pending
		}
	}
}

// await returns the helper's generation once it differs from seen: a short
// Gosched loop, then a park until post wakes the helper. A stale wake-up
// left in the channel only costs one more look at the generation.
func (h *teamHelper) await(seen uint64) uint64 {
	for i := 0; ; i++ {
		if g := h.gen.Load(); g != seen {
			return g
		}
		if i < teamSpin {
			runtime.Gosched()
			continue
		}
		h.parked.Store(true)
		if g := h.gen.Load(); g != seen {
			h.parked.Store(false)
			return g
		}
		<-h.wake
		h.parked.Store(false)
	}
}

// Close stops and joins every helper. It is a no-op on a nil Team and on a
// second call.
func (t *Team) Close() {
	if t == nil || t.closing.Swap(true) {
		return
	}
	for h := range t.helpers {
		t.helpers[h].post()
	}
	t.wg.Wait()
}
