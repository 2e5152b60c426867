package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"
)

func TestFlightRecorderWrapAndOrder(t *testing.T) {
	r := NewFlightRecorder(8)
	for i := 1; i <= 20; i++ {
		r.Record("mark", "m", "", strconv.Itoa(i))
	}
	if got := r.LastSeq(); got != 20 {
		t.Fatalf("LastSeq = %d, want 20", got)
	}
	evs := r.Snapshot()
	if len(evs) != 8 {
		t.Fatalf("snapshot has %d events, want capacity 8", len(evs))
	}
	for i, ev := range evs {
		wantSeq := uint64(13 + i) // the last 8 of 20, ascending
		if ev.Seq != wantSeq || ev.Detail != strconv.FormatUint(wantSeq, 10) {
			t.Errorf("event %d: seq=%d detail=%q, want seq=%d", i, ev.Seq, ev.Detail, wantSeq)
		}
	}
}

func TestFlightRecorderDefaultsAndNil(t *testing.T) {
	if got := NewFlightRecorder(0).Capacity(); got != DefaultFlightCapacity {
		t.Errorf("default capacity %d, want %d", got, DefaultFlightCapacity)
	}
	var r *FlightRecorder
	r.Record("mark", "x", "", "") // must not panic
	if r.Snapshot() != nil || r.LastSeq() != 0 || r.Capacity() != 0 {
		t.Error("nil recorder is not a no-op")
	}
	if r.AutoSnapshot("x") != "" {
		t.Error("nil recorder wrote a snapshot")
	}
}

// TestFlightRecorderRaceHammer is the -race soak: many concurrent writers
// against concurrent snapshotters. Every observed event must be internally
// consistent (untorn), and afterwards the sequence must account for every
// record.
func TestFlightRecorderRaceHammer(t *testing.T) {
	const (
		writers = 8
		perW    = 1000
	)
	r := NewFlightRecorder(64)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent snapshot readers.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, ev := range r.Snapshot() {
					// Torn events would mix fields from different writers.
					if ev.Detail != ev.Name {
						t.Errorf("torn event: seq=%d name=%q detail=%q", ev.Seq, ev.Name, ev.Detail)
						return
					}
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				tag := fmt.Sprintf("w%d-%d", w, i)
				r.Record("mark", tag, "", tag)
			}
		}(w)
	}
	go func() {
		// Close the reader loop once writers drain; a timeout guards hangs.
		deadline := time.After(30 * time.Second)
		for r.LastSeq() < writers*perW {
			select {
			case <-deadline:
				close(stop)
				return
			default:
				time.Sleep(time.Millisecond)
			}
		}
		close(stop)
	}()
	wg.Wait()
	if got := r.LastSeq(); got != writers*perW {
		t.Errorf("LastSeq = %d, want %d", got, writers*perW)
	}
	evs := r.Snapshot()
	if len(evs) != 64 {
		t.Errorf("final snapshot %d events, want full ring 64", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("snapshot not strictly ordered: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
}

func TestFlightRecorderRecordAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed under -race")
	}
	r := NewFlightRecorder(128)
	allocs := testing.AllocsPerRun(500, func() {
		r.Record(FlightKindBreaker, "executor", "", "open")
	})
	if allocs > 1 { // exactly the published event
		t.Errorf("Record allocates %.1f/op, want <=1", allocs)
	}
}

func TestFlightRecorderCountEvents(t *testing.T) {
	reg := NewRegistry()
	r := NewFlightRecorder(8)
	r.CountEvents(reg.Counter(MetricFlightEvents))
	for i := 0; i < 5; i++ {
		r.Record("mark", "m", "", "")
	}
	var got float64
	for _, s := range reg.Snapshot() {
		if s.Name == MetricFlightEvents {
			got = s.Value
		}
	}
	if got != 5 {
		t.Errorf("%s = %v, want 5", MetricFlightEvents, got)
	}
}

func TestFlightAutoSnapshotThrottleAndAtomicity(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "flightrec.json")
	r := NewFlightRecorder(16)
	r.Record(FlightKindPanic, "executor", "tr-1", "boom")
	r.SetAutoSnapshot(path, time.Hour)
	if got := r.AutoSnapshot("executor-panic"); got != path {
		t.Fatalf("AutoSnapshot = %q, want %q", got, path)
	}
	if got := r.AutoSnapshot("again"); got != "" {
		t.Errorf("second AutoSnapshot inside the throttle window wrote %q", got)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap FlightSnapshot
	if err := json.Unmarshal(blob, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Reason != "executor-panic" || len(snap.Events) != 1 || snap.Events[0].Trace != "tr-1" {
		t.Errorf("snapshot = %+v, want the recorded panic under reason executor-panic", snap)
	}
	// No leftover temp file from the atomic write.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("snapshot dir has %d entries, want just the snapshot", len(entries))
	}
	// Disarmed recorder writes nothing.
	r.SetAutoSnapshot("", 0)
	if got := r.AutoSnapshot("x"); got != "" {
		t.Errorf("disarmed AutoSnapshot wrote %q", got)
	}
}

func TestFlightSpanSinkForwardsAndRecords(t *testing.T) {
	r := NewFlightRecorder(8)
	mem := NewMemorySink()
	o := &Observer{Registry: NewRegistry(), Flight: r, Spans: r.SpanSink(mem)}
	sp := o.StartTrace("http.adapt", "trace-9")
	sp.SetAttr("outcome", "ok")
	sp.End()
	if got := mem.Spans(); len(got) != 1 || got[0].Name != "http.adapt" || got[0].Trace != "trace-9" {
		t.Fatalf("wrapped sink did not forward: %+v", got)
	}
	evs := r.Snapshot()
	if len(evs) != 1 || evs[0].Kind != FlightKindSpan || evs[0].Trace != "trace-9" || evs[0].Name != "http.adapt" {
		t.Errorf("flight ring = %+v, want one span event with the trace", evs)
	}
	// A nil recorder degrades to the wrapped sink; a nil next still records.
	var nilRec *FlightRecorder
	if s := nilRec.SpanSink(mem); s != Sink(mem) {
		t.Error("nil recorder SpanSink should return next unchanged")
	}
	solo := NewFlightRecorder(4)
	solo.SpanSink(nil).Emit(SpanData{Name: "x"})
	if solo.LastSeq() != 1 {
		t.Error("SpanSink(nil) did not record")
	}
}

func TestWriteSnapshotShape(t *testing.T) {
	r := NewFlightRecorder(4)
	r.Record(FlightKindSwap, "registry", "", "bundle-b")
	var buf bytes.Buffer
	if err := r.WriteSnapshot(&buf, "debug"); err != nil {
		t.Fatal(err)
	}
	var snap FlightSnapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Reason != "debug" || snap.Capacity != 4 || snap.LastSeq != 1 || len(snap.Events) != 1 {
		t.Errorf("snapshot = %+v", snap)
	}
}
