package main

import (
	"bytes"
	"context"
	"reflect"
	"testing"
	"time"
)

// TestOpenLoopChargesStallToLaterRequests stalls one request of an open-loop
// stream on a single connection: the requests that fall due during the
// stall must be charged the wait from their due time, and the run must
// report them late and backlogged.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const every, stall, stalled = 2 * time.Millisecond, 80 * time.Millisecond, 5
	ops := make([]op, 100)
	for i := range ops {
		ops[i] = op{Due: time.Duration(i) * every, Kind: opAdapt}
	}
	send := func(_, i int) outcome {
		if i == stalled {
			time.Sleep(stall)
		}
		return outcome{Status: 200}
	}
	outs := openLoop(context.Background(), time.Now(), ops, 1, send)

	next := stalled + 1 // due 2 ms into the stall
	if late := outs[next].Sent - ops[next].Due; late < stall/2 {
		t.Errorf("request due during the stall went out %v late, want at least %v", late, stall/2)
	}
	if lat := outs[next].Done - ops[next].Due; lat < stall/2 {
		t.Errorf("latency from due time %v does not include the stall", lat)
	}
	if lat := outs[next].Done - outs[next].Sent; lat > stall/2 {
		t.Errorf("send-to-reply time %v: the fake handler answers at once", lat)
	}
	st := stepStats(ops, outs, func(op) bool { return true })
	if st.failed != 0 || len(st.latMS) != len(ops) {
		t.Fatalf("stepStats: %d failed, %d latencies for %d ops", st.failed, len(st.latMS), len(ops))
	}
	if st.late.Tail < float64(stall/time.Millisecond)/2 {
		t.Errorf("late tail %.1f ms does not show the stall", st.late.Tail)
	}
	// Requests fall due every 2 ms through the 80 ms stall.
	if st.backlogMax < 20 {
		t.Errorf("backlog max %d, want at least 20 requests due and unsent", st.backlogMax)
	}
	if st.lat.Tail < st.lat.Median || st.lat.Median <= 0 {
		t.Errorf("latency summary %+v", st.lat)
	}
}

func TestOpenLoopStopsDispatchOnCancel(t *testing.T) {
	ops := []op{{Due: 0}, {Due: time.Hour}}
	ctx, cancel := context.WithCancel(context.Background())
	outs := openLoop(ctx, time.Now(), ops, 2, func(_, _ int) outcome {
		cancel()
		return outcome{Status: 200}
	})
	if outs[0].Sent < 0 || outs[1].Sent >= 0 {
		t.Errorf("sent offsets %v, %v: want the first sent and the second never", outs[0].Sent, outs[1].Sent)
	}
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	cfg := defaultConfig()
	cfg.Seconds, cfg.Burst = 2, 50
	pool := make([][]float64, 40)
	for i := range pool {
		pool[i] = []float64{float64(i), float64(i) / 7, -float64(i)}
	}
	bodies := func(ops []op) []byte {
		var all, body []byte
		var gather [][]float64
		for _, o := range ops {
			body, gather = appendAdaptBody(body[:0], gather, pool, o)
			all = append(all, body...)
		}
		return all
	}
	schedule := func(seed int64) (all []op) {
		ref, ladder, burst := serveSchedule(cfg, seed, len(pool))
		return append(append(ref, ladder...), burst...)
	}
	a, b := schedule(7), schedule(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different schedules")
	}
	if !bytes.Equal(bodies(a), bodies(b)) {
		t.Fatal("the same seed gave different request bodies")
	}
	if bytes.Equal(bodies(a), bodies(schedule(8))) {
		t.Fatal("seeds 7 and 8 gave identical request bodies")
	}
	sizes := make(map[int]int)
	for _, o := range a {
		sizes[len(o.Rows)]++
		if o.Seed == 0 {
			t.Fatal("an adapt request has seed 0, the pinned draw")
		}
	}
	for _, m := range sizeMix {
		if sizes[m.rows] == 0 {
			t.Errorf("no %d-row requests in %d", m.rows, len(a))
		}
	}
}
