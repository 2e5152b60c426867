package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

func TestMintTraceID(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := MintTraceID()
		if len(id) != 16 {
			t.Fatalf("MintTraceID = %q, want 16 hex chars", id)
		}
		for _, c := range id {
			if !strings.ContainsRune("0123456789abcdef", c) {
				t.Fatalf("MintTraceID = %q: non-hex %q", id, c)
			}
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %q within 1000 mints", id)
		}
		seen[id] = true
	}
}

type failWriter struct{ writes int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.writes++
	return 0, errors.New("disk full")
}

// TestJSONLinesSinkCountsDrops is the satellite-fix regression test: a
// span lost to a write failure must be visible in Drops and mirrored into
// the registry's obs_span_drops_total counter — never silently discarded.
func TestJSONLinesSinkCountsDrops(t *testing.T) {
	fw := &failWriter{}
	sink := NewJSONLinesSink(fw)
	reg := NewRegistry()
	sink.CountDrops(reg.Counter(MetricSpanDrops))
	o := &Observer{Registry: reg, Spans: sink}
	for i := 0; i < 3; i++ {
		sp := o.StartTrace("x", "tr")
		sp.End()
	}
	if fw.writes != 3 {
		t.Fatalf("writer saw %d writes, want 3", fw.writes)
	}
	var counted float64
	for _, s := range reg.Snapshot() {
		if s.Name == MetricSpanDrops {
			counted = s.Value
		}
	}
	if counted != 3 {
		t.Errorf("%s = %v, want 3", MetricSpanDrops, counted)
	}
	// Without a registered counter a failed write drops the span quietly.
	bare := NewJSONLinesSink(&failWriter{})
	bare.Emit(SpanData{Name: "y"})
}

func TestJSONLinesSinkWritesAttrsInOrder(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLinesSink(&buf)
	o := &Observer{Spans: sink}
	sp := o.StartTrace("span-a", "tr-1")
	sp.SetAttr("zeta", "1")
	sp.SetAttr("alpha", "2")
	sp.End()
	line := buf.String()
	var got SpanData
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatalf("emitted line is not JSON: %v\n%s", err, line)
	}
	if got.Trace != "tr-1" || got.Name != "span-a" {
		t.Errorf("round-trip = %+v", got)
	}
	// Insertion order survives the custom AttrList marshal (a map would
	// re-sort or randomize).
	if len(got.Attrs) != 2 || got.Attrs[0].Key != "zeta" || got.Attrs[1].Key != "alpha" {
		t.Errorf("attrs = %+v, want insertion order zeta,alpha", got.Attrs)
	}
}
