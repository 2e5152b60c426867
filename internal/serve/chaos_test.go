package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netdrift/internal/fault"
	"netdrift/internal/obs"

	"net/http/httptest"
)

// TestCancelWhileBatchInFlight cancels a request's context while its batch
// is executing (the executor is slowed by injection). Submit must unblock
// with the context error, and the worker must keep serving afterwards.
func TestCancelWhileBatchInFlight(t *testing.T) {
	a, _, rows := fixtures(t)
	inj := fault.New(3)
	inj.Set(FaultSiteExec, fault.Spec{SlowRate: 1, SlowFor: 150 * time.Millisecond})
	reg := NewRegistry(nil)
	reg.Swap(a)
	co := NewCoalescer(reg, Options{MaxBatch: 8, Workers: 1, Faults: inj})
	defer co.Close()

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := co.Submit(ctx, rows[:2], 0, false, nil)
		errCh <- err
	}()
	time.Sleep(30 * time.Millisecond) // batch is now in the slow executor
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Submit after mid-batch cancel = %v, want context.Canceled", err)
		}
	case <-time.After(50 * time.Millisecond):
		t.Fatal("Submit did not unblock promptly on cancel while batch in flight")
	}
	// The worker survives and the next request is served golden.
	inj.Clear()
	res, err := co.Submit(context.Background(), rows[:2], 0, false, nil)
	if err != nil || res.Degraded {
		t.Fatalf("request after mid-batch cancel: res=%+v err=%v", res, err)
	}
	if !sameRowsBits(res.Rows, adaptWith(t, a, rows[:2], 0)) {
		t.Error("post-cancel response not golden")
	}
}

// TestCloseRacingFlush races Close against a burst of Submits: every
// Submit must resolve to either a full golden result or ErrClosed —
// never a hang, a partial result, or a panic.
func TestCloseRacingFlush(t *testing.T) {
	a, _, rows := fixtures(t)
	golden := adaptWith(t, a, rows[:3], 0)
	for round := 0; round < 5; round++ {
		reg := NewRegistry(nil)
		reg.Swap(a)
		co := NewCoalescer(reg, Options{MaxBatch: 4, Workers: 2})
		const n = 16
		var wg sync.WaitGroup
		var served, closed atomic.Int64
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := co.Submit(context.Background(), rows[:3], 0, false, nil)
				switch {
				case err == nil:
					if res.Degraded || !sameRowsBits(res.Rows, golden) {
						t.Error("racing Submit returned a non-golden success")
					}
					served.Add(1)
				case errors.Is(err, ErrClosed):
					closed.Add(1)
				default:
					t.Errorf("racing Submit error %v, want nil or ErrClosed", err)
				}
			}()
		}
		time.Sleep(time.Duration(round) * 100 * time.Microsecond)
		co.Close()
		wg.Wait()
		if served.Load()+closed.Load() != n {
			t.Fatalf("round %d: %d served + %d closed != %d submitted",
				round, served.Load(), closed.Load(), n)
		}
	}
}

// TestOverflowSplitNearDeadline submits an oversized request (split into
// several executor chunks) under deadlines that expire around the split.
// The outcome must be all-or-nothing: either the full golden row set, or
// a deadline error — never a partial result.
func TestOverflowSplitNearDeadline(t *testing.T) {
	a, _, rows := fixtures(t)
	big := rows[:40] // MaxBatch 4 -> 10 chunks
	golden := adaptWith(t, a, big, 0)
	inj := fault.New(7)
	reg := NewRegistry(nil)
	reg.Swap(a)
	co := NewCoalescer(reg, Options{MaxBatch: 4, Workers: 1, Faults: inj})
	defer co.Close()

	var full, expired int
	for i := 0; i < 12; i++ {
		// Delay execution start so some deadlines die mid-flight and the
		// split's allCanceled check has to abort cleanly.
		inj.Set(FaultSiteExec, fault.Spec{SlowRate: 1, SlowFor: time.Duration(i) * 2 * time.Millisecond})
		ctx, cancel := context.WithTimeout(context.Background(), 8*time.Millisecond)
		res, err := co.Submit(ctx, big, 0, false, nil)
		cancel()
		switch {
		case err == nil:
			if res.Degraded {
				t.Fatalf("iter %d: degraded result with healthy executor", i)
			}
			if !sameRowsBits(res.Rows, golden) {
				t.Fatalf("iter %d: successful result is not the full golden row set (%d rows)", i, len(res.Rows))
			}
			full++
		case errors.Is(err, context.DeadlineExceeded):
			expired++
		default:
			t.Fatalf("iter %d: err = %v, want nil or DeadlineExceeded", i, err)
		}
	}
	if full == 0 || expired == 0 {
		t.Logf("coverage note: full=%d expired=%d (both paths ideally hit)", full, expired)
	}
}

// TestChaosHammer is the package's torn-response check: a fault storm
// (errors, panics, latency at every injection site) under concurrent
// clients, with every single 200 byte-checked against the bundle it
// claims — adapted responses must match the golden output bit-for-bit,
// degraded responses must echo the raw input exactly. After the storm,
// the server must return to golden within the breaker backoff.
func TestChaosHammer(t *testing.T) {
	a, _, rows := fixtures(t)
	o := obs.New()
	inj := fault.New(1234)
	inj.Set(FaultSiteExec, fault.Spec{ErrRate: 0.15, PanicRate: 0.05, SlowRate: 0.2, SlowFor: 500 * time.Microsecond})
	inj.Set(FaultSiteHandler, fault.Spec{ErrRate: 0.05, PanicRate: 0.02})
	reg := NewRegistry(o)
	reg.SetBreaker(NewBreaker("bundle_load", BreakerConfig{}, o))
	reg.Swap(a)
	co := NewCoalescer(reg, Options{
		MaxBatch: 8, Workers: 2, MaxQueue: 64,
		Faults: inj, Obs: o,
		Breaker: BreakerConfig{FailThreshold: 2, BaseBackoff: time.Millisecond, MaxBackoff: 8 * time.Millisecond, Seed: 7},
	})
	defer co.Close()
	ts := httptest.NewServer(NewServer(reg, co, o))
	defer ts.Close()

	// Fixed request shapes with precomputed goldens.
	type shape struct {
		raw    [][]float64
		golden [][]float64
		body   string
	}
	var shapes []shape
	for _, span := range [][2]int{{0, 1}, {1, 3}, {4, 8}, {8, 9}} {
		raw := rows[span[0]:span[1]]
		blob, err := json.Marshal(raw)
		if err != nil {
			t.Fatal(err)
		}
		shapes = append(shapes, shape{raw: raw, golden: adaptWith(t, a, raw, 0), body: fmt.Sprintf(`{"rows":%s}`, blob)})
	}

	const clients = 8
	const perClient = 40
	var torn, ok, degraded, shed, errs atomic.Int64
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				sh := shapes[(cl+i)%len(shapes)]
				res, err := http.Post(ts.URL+"/v1/adapt", "application/json", strings.NewReader(sh.body))
				if err != nil {
					errs.Add(1)
					continue
				}
				var ar AdaptResponse
				decErr := json.NewDecoder(res.Body).Decode(&ar)
				res.Body.Close()
				switch res.StatusCode {
				case http.StatusOK:
					if decErr != nil {
						torn.Add(1)
						continue
					}
					if ar.Degraded {
						if !sameRowsBits(ar.Rows, sh.raw) {
							torn.Add(1)
						} else {
							degraded.Add(1)
						}
						continue
					}
					if ar.BundleID != a.ID || !sameRowsBits(ar.Rows, sh.golden) {
						torn.Add(1)
					} else {
						ok.Add(1)
					}
				case http.StatusTooManyRequests:
					shed.Add(1)
				case http.StatusInternalServerError, http.StatusRequestTimeout:
					errs.Add(1)
				default:
					t.Errorf("unexpected status %d under chaos", res.StatusCode)
				}
			}
		}(cl)
	}
	wg.Wait()
	total := int64(clients * perClient)
	t.Logf("chaos: total=%d ok=%d degraded=%d shed=%d errors=%d torn=%d %s",
		total, ok.Load(), degraded.Load(), shed.Load(), errs.Load(), torn.Load(), inj.Summary())
	if torn.Load() != 0 {
		t.Fatalf("%d torn responses under chaos", torn.Load())
	}
	if ok.Load()+degraded.Load() == 0 {
		t.Fatal("chaos storm produced no successful responses at all")
	}

	// Storm over: must return to bit-identical golden serving.
	inj.Clear()
	deadline := time.Now().Add(5 * time.Second)
	for {
		res, ar := postAdapt(t, ts.URL, shapes[0].body)
		if res.StatusCode == http.StatusOK && !ar.Degraded {
			if !sameRowsBits(ar.Rows, shapes[0].golden) {
				t.Fatal("post-storm response is not bit-identical golden")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server did not recover to golden after chaos stopped")
		}
		time.Sleep(time.Millisecond)
	}
}
