package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestResolve(t *testing.T) {
	if got := Resolve(3); got != 3 {
		t.Errorf("Resolve(3) = %d", got)
	}
	want := runtime.GOMAXPROCS(0)
	if got := Resolve(0); got != want {
		t.Errorf("Resolve(0) = %d; want GOMAXPROCS %d", got, want)
	}
	if got := Resolve(-5); got != want {
		t.Errorf("Resolve(-5) = %d; want GOMAXPROCS %d", got, want)
	}
}

func TestForEachSequentialOrder(t *testing.T) {
	var order []int
	ForEach(1, 5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential order = %v", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("ran %d tasks; want 5", len(order))
	}
}

func TestForEachCoversAllIndices(t *testing.T) {
	const n = 2000
	hits := make([]atomic.Int32, n)
	ForEach(8, n, func(i int) { hits[i].Add(1) })
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Fatalf("index %d ran %d times; want exactly once", i, got)
		}
	}
}

func TestForEachZeroAndNegative(t *testing.T) {
	ran := false
	ForEach(4, 0, func(int) { ran = true })
	ForEach(4, -3, func(int) { ran = true })
	if ran {
		t.Error("fn ran for n <= 0")
	}
}

func TestForEachErrSequentialStopsEarly(t *testing.T) {
	boom := errors.New("boom")
	var ran []int
	err := ForEachErr(1, 10, func(i int) error {
		ran = append(ran, i)
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v; want boom", err)
	}
	if len(ran) != 4 {
		t.Fatalf("ran %v; want exactly [0 1 2 3]", ran)
	}
}

func TestForEachErrLowestIndexWins(t *testing.T) {
	// Every task fails with a distinct error. Index 0 is always claimed by
	// some worker's first claim, so the reported error must be task 0's.
	err := ForEachErr(4, 100, func(i int) error {
		return fmt.Errorf("task %d", i)
	})
	if err == nil || err.Error() != "task 0" {
		t.Fatalf("err = %v; want task 0", err)
	}
}

func TestForEachErrCancellation(t *testing.T) {
	// After the early error, the pool must stop claiming new work: with
	// n >> workers, far fewer than n tasks should run.
	var ran atomic.Int64
	_ = ForEachErr(2, 1_000_000, func(i int) error {
		ran.Add(1)
		return errors.New("stop")
	})
	if got := ran.Load(); got > 100 {
		t.Errorf("ran %d tasks after first error; cancellation not effective", got)
	}
}

func TestForEachPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		tp, ok := r.(TaskPanic)
		if !ok {
			t.Fatalf("recovered %#v; want TaskPanic", r)
		}
		if tp.Index != 2 || tp.Value != "kaboom" {
			t.Errorf("TaskPanic = %+v; want index 2 value kaboom", tp)
		}
		if tp.String() == "" {
			t.Error("empty TaskPanic string")
		}
	}()
	ForEach(4, 8, func(i int) {
		if i == 2 {
			panic("kaboom")
		}
	})
	t.Fatal("ForEach returned despite task panic")
}

func TestForEachErrPanicBeatsError(t *testing.T) {
	// A panic must surface as a panic even when other tasks returned
	// errors. Index 0 is always executed, so panicking there guarantees
	// the panic is observed regardless of cancellation.
	defer func() {
		if _, ok := recover().(TaskPanic); !ok {
			t.Fatal("expected TaskPanic")
		}
	}()
	_ = ForEachErr(4, 8, func(i int) error {
		if i == 0 {
			panic("early panic")
		}
		return fmt.Errorf("err %d", i)
	})
	t.Fatal("no panic propagated")
}
