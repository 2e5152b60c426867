package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value span annotation.
type Attr struct {
	Key   string
	Value string
}

// AttrList is an ordered attribute set. Small sets (≤ inlineAttrs) live in
// an array inlined in the Span, so annotating a span on the serve hot path
// does not allocate a map; the list marshals to the same JSON object shape
// the old map produced, in insertion order.
type AttrList []Attr

// Get returns the value for key, or "" when absent.
func (a AttrList) Get(key string) string {
	for _, kv := range a {
		if kv.Key == key {
			return kv.Value
		}
	}
	return ""
}

// MarshalJSON renders the list as a JSON object in insertion order.
func (a AttrList) MarshalJSON() ([]byte, error) {
	buf := make([]byte, 0, 16+len(a)*24)
	buf = append(buf, '{')
	for i, kv := range a {
		if i > 0 {
			buf = append(buf, ',')
		}
		k, err := json.Marshal(kv.Key)
		if err != nil {
			return nil, err
		}
		v, err := json.Marshal(kv.Value)
		if err != nil {
			return nil, err
		}
		buf = append(buf, k...)
		buf = append(buf, ':')
		buf = append(buf, v...)
	}
	return append(buf, '}'), nil
}

// UnmarshalJSON accepts the object shape MarshalJSON produces. Key order
// within the object is preserved only as far as encoding/json reports it
// (token order), which matches the emitted order.
func (a *AttrList) UnmarshalJSON(data []byte) error {
	dec := json.NewDecoder(newByteReader(data))
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	if d, ok := tok.(json.Delim); !ok || d != '{' {
		return &json.UnmarshalTypeError{Value: "non-object", Type: nil}
	}
	out := (*a)[:0]
	for dec.More() {
		kt, err := dec.Token()
		if err != nil {
			return err
		}
		var v string
		if err := dec.Decode(&v); err != nil {
			return err
		}
		out = append(out, Attr{Key: kt.(string), Value: v})
	}
	*a = out
	return nil
}

// newByteReader avoids bytes.NewReader's interface indirection cost in the
// tiny UnmarshalJSON path (and keeps this file's imports minimal).
type byteReader struct {
	b []byte
	i int
}

func newByteReader(b []byte) *byteReader { return &byteReader{b: b} }

func (r *byteReader) Read(p []byte) (int, error) {
	if r.i >= len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.i:])
	r.i += n
	return n, nil
}

// SpanData is the immutable record a finished span emits to its Sink.
type SpanData struct {
	Trace    string        `json:"trace,omitempty"`
	ID       uint64        `json:"id"`
	ParentID uint64        `json:"parent,omitempty"`
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"durationNs"`
	Attrs    AttrList      `json:"attrs,omitempty"`
}

// Sink receives finished spans. Implementations must be safe for
// concurrent use. A nil Sink disables tracing entirely (the no-op
// default): Observer.StartSpan then returns nil and every Span method on
// that nil span is a no-op, so the disabled path costs one pointer check.
type Sink interface {
	Emit(SpanData)
}

// spanIDs is the process-wide span ID source.
var spanIDs atomic.Uint64

// inlineAttrs is the attr count a span stores without allocating beyond
// the span itself; rarer, larger sets spill into a slice.
const inlineAttrs = 8

// Span is one timed phase of the pipeline. Spans form a hierarchy via
// Child and share one trace ID per root request. All methods are nil-safe.
type Span struct {
	sink   Sink
	id     uint64
	parent uint64
	trace  string
	name   string
	start  time.Time
	mu     sync.Mutex
	inline [inlineAttrs]Attr
	nAttrs int
	spill  []Attr
	done   bool
}

func startSpan(sink Sink, parent uint64, trace, name string) *Span {
	if sink == nil {
		return nil
	}
	return &Span{
		sink:   sink,
		id:     spanIDs.Add(1),
		parent: parent,
		trace:  trace,
		name:   name,
		start:  time.Now(),
	}
}

// Child starts a sub-span sharing this span's sink and trace ID.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return startSpan(s.sink, s.id, s.trace, name)
}

// ID returns the span's process-unique ID (0 for a nil span).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Trace returns the span's trace ID ("" for a nil span).
func (s *Span) Trace() string {
	if s == nil {
		return ""
	}
	return s.trace
}

// SetAttr attaches a key/value annotation to the span, overwriting any
// previous value for the same key. The first inlineAttrs distinct keys are
// stored inline in the span, so hot-path annotation allocates nothing.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	for i := 0; i < s.nAttrs; i++ {
		if s.inline[i].Key == key {
			s.inline[i].Value = value
			s.mu.Unlock()
			return
		}
	}
	for i := range s.spill {
		if s.spill[i].Key == key {
			s.spill[i].Value = value
			s.mu.Unlock()
			return
		}
	}
	if s.nAttrs < inlineAttrs {
		s.inline[s.nAttrs] = Attr{Key: key, Value: value}
		s.nAttrs++
	} else {
		s.spill = append(s.spill, Attr{Key: key, Value: value})
	}
	s.mu.Unlock()
}

// End finishes the span and emits it to the sink. Repeated calls are
// ignored, so `defer sp.End()` composes with early explicit ends.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return
	}
	s.done = true
	var attrs AttrList
	if len(s.spill) > 0 {
		attrs = append(append(AttrList{}, s.inline[:s.nAttrs]...), s.spill...)
	} else if s.nAttrs > 0 {
		attrs = AttrList(s.inline[:s.nAttrs:s.nAttrs])
	}
	s.mu.Unlock()
	s.sink.Emit(SpanData{
		Trace:    s.trace,
		ID:       s.id,
		ParentID: s.parent,
		Name:     s.name,
		Start:    s.start,
		Duration: time.Since(s.start),
		Attrs:    attrs,
	})
}

// JSONLinesSink writes one JSON object per finished span, suitable for
// appending to a trace log file. Spans that fail to marshal or write are
// dropped and counted in the registry counter CountDrops registers
// (MetricSpanDrops), so /metrics exposes the loss.
type JSONLinesSink struct {
	mu      sync.Mutex
	w       io.Writer
	counter *Counter // drop counter; may be nil
}

// NewJSONLinesSink wraps w; writes are serialized internally.
func NewJSONLinesSink(w io.Writer) *JSONLinesSink {
	return &JSONLinesSink{w: w}
}

// CountDrops counts every dropped span in c (typically the registry's
// MetricSpanDrops counter).
func (s *JSONLinesSink) CountDrops(c *Counter) {
	s.mu.Lock()
	s.counter = c
	s.mu.Unlock()
}

// Emit implements Sink.
func (s *JSONLinesSink) Emit(sp SpanData) {
	line, err := json.Marshal(sp)
	if err != nil {
		s.mu.Lock()
		s.counter.Inc()
		s.mu.Unlock()
		return
	}
	line = append(line, '\n')
	s.mu.Lock()
	if _, err := s.w.Write(line); err != nil {
		s.counter.Inc()
	}
	s.mu.Unlock()
}

// MemorySink collects finished spans in memory, for tests and inspection.
type MemorySink struct {
	mu    sync.Mutex
	spans []SpanData
}

// NewMemorySink creates an empty collector.
func NewMemorySink() *MemorySink { return &MemorySink{} }

// Emit implements Sink.
func (s *MemorySink) Emit(sp SpanData) {
	s.mu.Lock()
	s.spans = append(s.spans, sp)
	s.mu.Unlock()
}

// Spans returns a copy of everything collected so far.
func (s *MemorySink) Spans() []SpanData {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]SpanData(nil), s.spans...)
}
