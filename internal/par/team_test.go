package par

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// recordJob records, per part, the goroutine-independent facts a test
// checks: how often it ran and with what part count.
type recordJob struct {
	runs  [8]atomic.Int32
	parts [8]atomic.Int32
	sleep time.Duration // each helper part (i > 0) sleeps this long
	panic map[int]any   // part → value it panics with
}

func (j *recordJob) Part(i, n int) {
	j.runs[i].Add(1)
	j.parts[i].Store(int32(n))
	if j.sleep > 0 && i > 0 {
		time.Sleep(j.sleep)
	}
	if v, ok := j.panic[i]; ok {
		panic(v)
	}
}

// checkRan fails unless parts 0..n-1 ran once each with part count n and
// no other part ran.
func (j *recordJob) checkRan(t *testing.T, n int) {
	t.Helper()
	for i := range j.runs {
		want := int32(0)
		if i < n {
			want = 1
		}
		if got := j.runs[i].Load(); got != want {
			t.Fatalf("part %d ran %d times, want %d", i, got, want)
		}
		if i < n && j.parts[i].Load() != int32(n) {
			t.Fatalf("part %d saw %d parts, want %d", i, j.parts[i].Load(), n)
		}
	}
}

// waitGoroutines waits up to a second for the goroutine count to return
// to base: an exiting helper may still be counted for a moment after
// Close's join.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, want %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTeamWidthOneInline pins the exact sequential path: a width-1 team
// (and a nil one) starts no goroutine and runs its one part on the caller.
func TestTeamWidthOneInline(t *testing.T) {
	base := runtime.NumGoroutine()
	team := NewTeam(1)
	if got := runtime.NumGoroutine(); got != base {
		t.Fatalf("NewTeam(1) started %d goroutines", got-base)
	}
	for _, tm := range []*Team{team, nil} {
		if tm.Width() != 1 {
			t.Fatalf("width %d, want 1", tm.Width())
		}
		before := splitRuns.Load()
		j := &recordJob{}
		tm.Run(4, j) // capped at the width
		j.checkRan(t, 1)
		if splitRuns.Load() != before {
			t.Fatal("a width-1 Run counted as a split")
		}
	}
	team.Close()
	var nilTeam *Team
	nilTeam.Close()
}

// TestTeamRunsEveryPart runs several Runs on one team: every part runs
// once per Run, the part count is capped at the width, and a Run that
// comes after the helpers have parked (a pause longer than their spin)
// and one whose helper part outlasts the caller's spin (so the caller
// parks in the join) both complete.
func TestTeamRunsEveryPart(t *testing.T) {
	team := NewTeam(3)
	defer team.Close()
	for _, n := range []int{3, 2, 5, 1, 0} {
		j := &recordJob{}
		before := splitRuns.Load()
		team.Run(n, j)
		want := min(n, 3)
		j.checkRan(t, want)
		if split := splitRuns.Load() > before; split != (want > 1) {
			t.Fatalf("Run(%d): counted as a split %v", n, split)
		}
	}
	time.Sleep(20 * time.Millisecond) // the helpers park
	j := &recordJob{}
	team.Run(3, j)
	j.checkRan(t, 3)
	j = &recordJob{sleep: 20 * time.Millisecond} // the caller parks
	team.Run(3, j)
	j.checkRan(t, 3)
}

// TestTeamPanicLowestIndex pins the panic contract: every part still
// runs, the caller re-raises a TaskPanic with the lowest panicking part's
// index and value once all are done, and the team stays usable.
func TestTeamPanicLowestIndex(t *testing.T) {
	team := NewTeam(4)
	defer team.Close()
	for _, c := range []struct {
		panics map[int]any
		want   int
	}{
		{map[int]any{2: "two", 3: "three"}, 2},
		{map[int]any{3: "three"}, 3},
		{map[int]any{0: "zero", 1: "one"}, 0},
	} {
		j := &recordJob{panic: c.panics}
		func() {
			defer func() {
				p, ok := recover().(TaskPanic)
				if !ok {
					t.Fatalf("recovered %v, want a TaskPanic", p)
				}
				if p.Index != c.want || p.Value != c.panics[c.want] {
					t.Fatalf("TaskPanic{%d, %v}, want {%d, %v}", p.Index, p.Value, c.want, c.panics[c.want])
				}
			}()
			team.Run(4, j)
			t.Fatal("Run returned without panicking")
		}()
		j.checkRan(t, 4)
	}
	j := &recordJob{}
	team.Run(4, j)
	j.checkRan(t, 4)
}

// TestTeamCloseJoinsHelpers pins that Close joins every helper, whether
// it is spinning or parked, and that a second Close is a no-op.
func TestTeamCloseJoinsHelpers(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, pause := range []time.Duration{0, 20 * time.Millisecond} {
		team := NewTeam(4)
		if got := runtime.NumGoroutine(); got != base+3 {
			t.Fatalf("NewTeam(4) runs %d goroutines, want 3 helpers", got-base)
		}
		team.Run(4, &recordJob{})
		time.Sleep(pause)
		team.Close()
		team.Close()
		waitGoroutines(t, base)
	}
}

// TestTeamRace hammers one team with back-to-back Runs whose parts write
// disjoint slots that the caller reads after each Run; under -race any
// missing happens-before edge between a part and the caller is reported.
func TestTeamRace(t *testing.T) {
	team := NewTeam(3)
	defer team.Close()
	j := &slotJob{out: make([]int, 3)}
	for r := 0; r < 2000; r++ {
		j.round = r
		team.Run(3, j)
		for i, v := range j.out {
			if v != r*10+i {
				t.Fatalf("round %d: slot %d holds %d", r, i, v)
			}
		}
		if r%500 == 0 {
			time.Sleep(2 * time.Millisecond) // let the helpers park
		}
	}
}

// slotJob writes round*10+i into slot i.
type slotJob struct {
	round int
	out   []int
}

func (j *slotJob) Part(i, _ int) { j.out[i] = j.round*10 + i }

// BenchmarkTeamRun times the hand-off itself: one Run of empty parts on a
// warm two-member team.
func BenchmarkTeamRun(b *testing.B) {
	team := NewTeam(2)
	defer team.Close()
	j := &slotJob{out: make([]int, 2)}
	for i := 0; i < b.N; i++ {
		team.Run(2, j)
	}
}
