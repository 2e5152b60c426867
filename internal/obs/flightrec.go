package obs

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Flight-recorder event kinds. Every noteworthy serving-stack transition
// lands in the ring under one of these, so a snapshot reads as a causal
// timeline: what was in flight (spans), what was injected (faults), and
// how the control surfaces reacted (breaker, shed, degrade, swap, panic).
const (
	FlightKindSpan    = "span"    // a span completed (Name = span name, Trace = its trace ID)
	FlightKindFault   = "fault"   // chaos injection fired (Name = site, Detail = slow|err|panic)
	FlightKindBreaker = "breaker" // breaker transition (Name = breaker, Detail = new state)
	FlightKindShed    = "shed"    // admission control refused a request
	FlightKindDegrade = "degrade" // a group was served as passthrough
	FlightKindSwap    = "swap"    // bundle hot-swap (Detail = new bundle ID)
	FlightKindPanic   = "panic"   // recovered panic (Name = site)
	FlightKindCtrl    = "ctrl"    // drift-controller transition (Name = event, Detail = context)
)

// FlightEvent is one ring entry. Events are immutable once published.
type FlightEvent struct {
	Seq    uint64 `json:"seq"`
	Nanos  int64  `json:"unix_nanos"`
	Kind   string `json:"kind"`
	Name   string `json:"name"`
	Trace  string `json:"trace,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// FlightRecorder is a fixed-capacity black-box recorder: the last
// ~Capacity events survive, older ones are overwritten in place. Record is
// lock-free (one atomic sequence claim plus one pointer publish), so it is
// safe to call from the hottest serving paths, panic handlers, and breaker
// transitions without ordering concerns; Snapshot never blocks writers.
// The zero-capacity and nil recorders are no-ops.
type FlightRecorder struct {
	slots   []atomic.Pointer[FlightEvent]
	seq     atomic.Uint64
	counter atomic.Pointer[Counter] // optional events-recorded mirror

	// Auto-snapshot state: a configured path arms snapshot-on-incident
	// (executor panic, breaker open, chaoscheck failure). Writes are
	// throttled so an incident storm produces one file, not thousands.
	snapMu       sync.Mutex
	snapPath     string
	snapMinGap   time.Duration
	lastSnapNano atomic.Int64
}

// DefaultFlightCapacity is the ring size used when none is given: enough
// for several seconds of a busy serving timeline without measurable memory.
const DefaultFlightCapacity = 2048

// NewFlightRecorder builds a ring holding the last capacity events
// (DefaultFlightCapacity when capacity <= 0).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightCapacity
	}
	return &FlightRecorder{
		slots:      make([]atomic.Pointer[FlightEvent], capacity),
		snapMinGap: time.Second,
	}
}

// CountEvents mirrors every Record into c (typically the registry's
// MetricFlightEvents counter) so /metrics exposes ring throughput.
func (r *FlightRecorder) CountEvents(c *Counter) {
	if r == nil || c == nil {
		return
	}
	r.counter.Store(c)
}

// Record publishes one event. Safe for any number of concurrent writers;
// never blocks, never takes a lock.
func (r *FlightRecorder) Record(kind, name, trace, detail string) {
	if r == nil || len(r.slots) == 0 {
		return
	}
	seq := r.seq.Add(1)
	r.slots[(seq-1)%uint64(len(r.slots))].Store(&FlightEvent{
		Seq:    seq,
		Nanos:  time.Now().UnixNano(),
		Kind:   kind,
		Name:   name,
		Trace:  trace,
		Detail: detail,
	})
	if c := r.counter.Load(); c != nil {
		c.Inc()
	}
}

// LastSeq returns the sequence number of the most recently claimed event
// (0 before the first Record).
func (r *FlightRecorder) LastSeq() uint64 {
	if r == nil {
		return 0
	}
	return r.seq.Load()
}

// Capacity returns the ring size.
func (r *FlightRecorder) Capacity() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// Snapshot copies the surviving events, ordered by ascending sequence
// number. Events being published concurrently may be missed; everything
// returned is complete and untorn (each slot holds an immutable event).
func (r *FlightRecorder) Snapshot() []FlightEvent {
	if r == nil {
		return nil
	}
	out := make([]FlightEvent, 0, len(r.slots))
	for i := range r.slots {
		if ev := r.slots[i].Load(); ev != nil {
			out = append(out, *ev)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// FlightSnapshot is the serialized dump shape: the /debug/flightrec body
// and the on-disk incident file share it.
type FlightSnapshot struct {
	Reason   string        `json:"reason"`
	TakenAt  time.Time     `json:"taken_at"`
	LastSeq  uint64        `json:"last_seq"`
	Capacity int           `json:"capacity"`
	Events   []FlightEvent `json:"events"`
}

// SnapshotFor assembles a dump document tagged with reason.
func (r *FlightRecorder) SnapshotFor(reason string) FlightSnapshot {
	return FlightSnapshot{
		Reason:   reason,
		TakenAt:  time.Now(),
		LastSeq:  r.LastSeq(),
		Capacity: r.Capacity(),
		Events:   r.Snapshot(),
	}
}

// WriteSnapshot writes the dump as indented JSON.
func (r *FlightRecorder) WriteSnapshot(w io.Writer, reason string) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.SnapshotFor(reason))
}

// SetAutoSnapshot arms incident snapshots: AutoSnapshot writes the ring to
// path (atomically, via rename), at most once per minGap (default 1s when
// minGap <= 0). An empty path disarms.
func (r *FlightRecorder) SetAutoSnapshot(path string, minGap time.Duration) {
	if r == nil {
		return
	}
	if minGap <= 0 {
		minGap = time.Second
	}
	r.snapMu.Lock()
	r.snapPath = path
	r.snapMinGap = minGap
	r.snapMu.Unlock()
}

// AutoSnapshot writes an incident snapshot if armed and outside the
// throttle window, returning the path written ("" otherwise). It is safe
// to call from recovery paths: all errors are swallowed (the incident
// being recorded matters more than the recording of it).
func (r *FlightRecorder) AutoSnapshot(reason string) string {
	if r == nil {
		return ""
	}
	r.snapMu.Lock()
	path, gap := r.snapPath, r.snapMinGap
	r.snapMu.Unlock()
	if path == "" {
		return ""
	}
	now := time.Now().UnixNano()
	last := r.lastSnapNano.Load()
	if now-last < int64(gap) || !r.lastSnapNano.CompareAndSwap(last, now) {
		return ""
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return ""
	}
	err = r.WriteSnapshot(f, reason)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil || os.Rename(tmp, path) != nil {
		os.Remove(tmp)
		return ""
	}
	return path
}

// SpanSink returns a Sink that records each span completion into the ring
// and forwards it to next (which may be nil). Wire it as Observer.Spans to
// make the flight recorder see the request timeline alongside the
// discrete control events.
func (r *FlightRecorder) SpanSink(next Sink) Sink {
	if r == nil {
		return next
	}
	return &flightSpanSink{r: r, next: next}
}

type flightSpanSink struct {
	r    *FlightRecorder
	next Sink
}

func (s *flightSpanSink) Emit(sp SpanData) {
	s.r.Record(FlightKindSpan, sp.Name, sp.Trace, sp.Duration.String())
	if s.next != nil {
		s.next.Emit(sp)
	}
}
