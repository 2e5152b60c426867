package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"netdrift/internal/obs"
)

// Satellite edge-case coverage for the coalescer: MaxWait expiry, batch
// overflow splitting, queued-request cancellation, shutdown draining.

func TestCoalescerMaxWaitFlushesLoneRequest(t *testing.T) {
	a, _, rows := fixtures(t)
	reg := NewRegistry(nil)
	reg.Swap(a)
	// Batch threshold far above the request size: only the MaxWait timer
	// can flush.
	co := NewCoalescer(reg, Options{MaxBatch: 1 << 20, MaxWait: 10 * time.Millisecond})
	defer co.Close()

	start := time.Now()
	res, err := co.Submit(context.Background(), rows[:3], 0, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("lone request took %v; MaxWait expiry did not flush", elapsed)
	}
	if !sameRowsBits(res.Rows, adaptWith(t, a, rows[:3], 0)) {
		t.Error("timer-flushed request served wrong rows")
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
	reg := NewRegistry(nil)
	reg.Swap(a)
	// A queue that never flushes on its own: huge batch, huge wait.
	co := NewCoalescer(reg, Options{MaxBatch: 1 << 20, MaxWait: time.Hour})
	defer co.Close()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := co.Submit(ctx, rows[:2], 0, false, nil)
		errc <- err
	}()
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
}

func TestCoalescerCloseDrainsQueuedRequests(t *testing.T) {
	a, _, rows := fixtures(t)
	reg := NewRegistry(nil)
	reg.Swap(a)
	// Nothing flushes until Close: requests must be served by the
	// shutdown drain, not dropped.
	co := NewCoalescer(reg, Options{MaxBatch: 1 << 20, MaxWait: time.Hour})

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
	time.Sleep(50 * time.Millisecond) // let every request reach the queue
	co.Close()
	wg.Wait()
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
