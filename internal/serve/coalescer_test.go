package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"netdrift/internal/fault"
	"netdrift/internal/obs"
)

// Edge-case coverage for the coalescer: a lone request on an idle
// executor, coalescing behind a busy one, batch overflow splitting,
// queued-request cancellation, shutdown draining.

// holdExecutor arms FaultSiteExec so that the first batch to reach an
// executor blocks there, inside the fault's slow draw, until release is
// called; busy closes once it has. Later batches run unhindered. Requests
// submitted while the executor is held wait in the coalescer, with no
// wall-clock race deciding whether they do. Defer release after deferring
// the coalescer's Close, so a failing test unblocks the executor first.
func holdExecutor() (inj *fault.Injector, busy <-chan struct{}, release func()) {
	inj = fault.New(1)
	inj.Set(FaultSiteExec, fault.Spec{SlowRate: 1})
	held, gate := make(chan struct{}), make(chan struct{})
	var once, releaseOnce sync.Once
	inj.SetHook(func(site, kind string) {
		if kind == "slow" {
			once.Do(func() {
				close(held)
				<-gate
			})
		}
	})
	release = func() { releaseOnce.Do(func() { close(gate) }) }
	return inj, held, release
}

// submitBlocker submits a one-row request that holdExecutor's fault holds in
// the executor, and waits until it is held. The returned channel yields the
// blocker's error once it is served.
func submitBlocker(t *testing.T, co *Coalescer, row []float64, busy <-chan struct{}) <-chan error {
	t.Helper()
	errc := make(chan error, 1)
	go func() {
		_, err := co.Submit(context.Background(), [][]float64{row}, 99, false, nil)
		errc <- err
	}()
	select {
	case <-busy:
	case <-time.After(10 * time.Second):
		t.Fatal("blocker request never reached the executor")
	}
	return errc
}

// waitQueuedRows polls until the coalescer has admitted exactly n rows that
// no executor has picked up.
func waitQueuedRows(t *testing.T, co *Coalescer, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for co.Status().QueuedRows != n {
		if time.Now().After(deadline) {
			t.Fatalf("queued rows = %d, want %d", co.Status().QueuedRows, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCoalescerLoneRequestRunsAtOnce(t *testing.T) {
	a, _, rows := fixtures(t)
	o := obs.New()
	reg := NewRegistry(o)
	reg.Swap(a)
	// A batch cap far above the request size: the request runs because
	// the executor is idle, not because any batch filled up.
	co := NewCoalescer(reg, Options{MaxBatch: 1 << 20, Obs: o})
	defer co.Close()

	res, err := co.Submit(context.Background(), rows[:3], 0, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRowsBits(res.Rows, adaptWith(t, a, rows[:3], 0)) {
		t.Error("lone request served wrong rows")
	}
	sizeHist := o.Registry.Histogram(obs.MetricServeBatchSize, obs.BatchSizeBuckets)
	if sizeHist.Count() != 1 || sizeHist.Sum() != 3 {
		t.Errorf("batches: %d totalling %v rows, want one batch of 3", sizeHist.Count(), sizeHist.Sum())
	}
}

// TestCoalescerBusyExecutorCoalesces checks that batches form while the
// executor is busy, however long it stays busy: n one-row requests that
// arrive a few milliseconds apart behind a held blocker run as exactly one
// batch once it is released, each row bit-identical to unbatched serving,
// and each request's queue wait is observed once. A flush timer shorter
// than the arrivals' spread would split them into several batches.
func TestCoalescerBusyExecutorCoalesces(t *testing.T) {
	a, _, rows := fixtures(t)
	o := obs.New()
	inj, busy, release := holdExecutor()
	reg := NewRegistry(o)
	reg.Swap(a)
	co := NewCoalescer(reg, Options{MaxBatch: 32, Workers: 1, Faults: inj, Obs: o})
	defer co.Close()
	defer release()
	blocker := submitBlocker(t, co, rows[0], busy)

	const n = 8
	results := make([]Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = co.Submit(context.Background(), rows[i:i+1], int64(i), false, nil)
		}(i)
		waitQueuedRows(t, co, int64(i+1))
		time.Sleep(3 * time.Millisecond)
	}
	// Every request is admitted and has left reqCh for the dispatcher's
	// pending batch; the settle sleep covers a submitter between its
	// admission and its send.
	deadline := time.Now().Add(10 * time.Second)
	for len(co.reqCh) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d requests never left the request queue; the dispatcher is stuck", len(co.reqCh))
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	release()
	wg.Wait()
	if err := <-blocker; err != nil {
		t.Fatalf("blocker: %v", err)
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Errorf("request %d: %v", i, errs[i])
			continue
		}
		if !sameRowsBits(results[i].Rows, adaptWith(t, a, rows[i:i+1], int64(i))) {
			t.Errorf("request %d served wrong rows", i)
		}
	}
	if v, _ := o.Registry.Value(obs.MetricServeBatches); v != 2 {
		t.Errorf("batches = %v, want 2 (the blocker, then all %d requests)", v, n)
	}
	sizeHist := o.Registry.Histogram(obs.MetricServeBatchSize, obs.BatchSizeBuckets)
	if maxSeen := sizeHist.Quantile(1); maxSeen != n || sizeHist.Sum() != 1+n {
		t.Errorf("batch sizes: max ≈ %v, total %v rows; want max %d, total %d", maxSeen, sizeHist.Sum(), n, 1+n)
	}
	if c := o.Registry.Histogram(obs.MetricServeQueueWait, obs.LatencyBuckets).Count(); c != 1+n {
		t.Errorf("queue-wait observations = %d, want %d (one per served request)", c, 1+n)
	}
}

func TestCoalescerOverflowSplitting(t *testing.T) {
	a, _, rows := fixtures(t)
	o := obs.New()
	reg := NewRegistry(o)
	reg.Swap(a)
	co := NewCoalescer(reg, Options{MaxBatch: 4, Workers: 1, Obs: o})
	defer co.Close()

	// A single request far larger than MaxBatch must be split into
	// MaxBatch-sized chunks by the executor, and still return every row
	// bit-identical to the unbatched reference.
	n := 10 // 4 + 4 + 2
	res, err := co.Submit(context.Background(), rows[:n], 7, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRowsBits(res.Rows, adaptWith(t, a, rows[:n], 7)) {
		t.Error("oversized request rows differ from unbatched reference")
	}
	var batches float64
	for _, s := range o.Registry.Snapshot() {
		if s.Name == obs.MetricServeBatches {
			batches = s.Value
		}
	}
	if batches != 3 {
		t.Errorf("batches = %v, want 3 (4+4+2 split)", batches)
	}
	// No executed batch may exceed MaxBatch: the batch-size histogram's
	// 100th percentile clamps to the bucket bound covering the largest
	// observation.
	sizeHist := o.Registry.Histogram(obs.MetricServeBatchSize, obs.BatchSizeBuckets)
	if maxSeen := sizeHist.Quantile(1); maxSeen > 4 {
		t.Errorf("largest executed batch ≈ %v rows, exceeds MaxBatch 4", maxSeen)
	}
}

func TestCoalescerQueuedRequestCancellation(t *testing.T) {
	a, _, rows := fixtures(t)
	o := obs.New()
	inj, busy, release := holdExecutor()
	reg := NewRegistry(o)
	reg.Swap(a)
	co := NewCoalescer(reg, Options{MaxBatch: 1 << 20, Faults: inj, Obs: o})
	defer co.Close()
	defer release()
	blocker := submitBlocker(t, co, rows[0], busy)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := co.Submit(ctx, rows[1:3], 0, false, nil)
		errc <- err
	}()
	waitQueuedRows(t, co, 2)
	time.Sleep(20 * time.Millisecond) // let the request reach the queue
	cancel()
	select {
	case err := <-errc:
		if err != context.Canceled {
			t.Errorf("canceled queued Submit returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled Submit did not return; waiter leaked in the queue")
	}
	select {
	case err := <-blocker:
		t.Fatalf("blocker finished while the executor was held (err %v)", err)
	default:
	}
	release()
	if err := <-blocker; err != nil {
		t.Fatalf("blocker: %v", err)
	}
	co.Close()
	// The canceled request is dropped at pickup, never executed.
	if v, _ := o.Registry.Value(obs.MetricServeBatches); v != 1 {
		t.Errorf("batches = %v, want 1 (the blocker only)", v)
	}
}

func TestCoalescerCloseDrainsQueuedRequests(t *testing.T) {
	a, _, rows := fixtures(t)
	inj, busy, release := holdExecutor()
	reg := NewRegistry(nil)
	reg.Swap(a)
	// The held executor keeps every request queued until Close: they must
	// be served by the shutdown drain, not dropped.
	co := NewCoalescer(reg, Options{MaxBatch: 1 << 20, Faults: inj})
	defer co.Close()
	defer release()
	blocker := submitBlocker(t, co, rows[0], busy)

	const waiters = 5
	results := make([]Result, waiters)
	errs := make([]error, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = co.Submit(context.Background(), rows[i:i+1], 0, false, nil)
		}(i)
	}
	waitQueuedRows(t, co, waiters)
	closed := make(chan struct{})
	go func() {
		co.Close()
		close(closed)
	}()
	// Wait for Close to begin; it then closes the request queue while
	// the executor is still held.
	deadline := time.Now().Add(10 * time.Second)
	for {
		co.mu.Lock()
		closing := co.closed
		co.mu.Unlock()
		if closing {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Close never began")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let Close close the request queue
	release()
	<-closed
	wg.Wait()
	if err := <-blocker; err != nil {
		t.Fatalf("blocker: %v", err)
	}
	want := adaptWith(t, a, rows[:waiters], 0)
	for i := 0; i < waiters; i++ {
		if errs[i] != nil {
			t.Errorf("queued request %d failed at shutdown: %v", i, errs[i])
			continue
		}
		if !sameRowsBits(results[i].Rows, want[i:i+1]) {
			t.Errorf("request %d drained with wrong rows", i)
		}
	}

	// After Close, new submissions are refused.
	if _, err := co.Submit(context.Background(), rows[:1], 0, false, nil); err != ErrClosed {
		t.Errorf("Submit after Close: err = %v, want ErrClosed", err)
	}
}
