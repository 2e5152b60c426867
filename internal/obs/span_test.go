package obs

import (
	"bufio"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestSpanHierarchyMemorySink(t *testing.T) {
	sink := NewMemorySink()
	o := &Observer{Spans: sink}
	root := o.StartSpan("adapter.fit")
	child := root.Child("feature_separation")
	child.SetAttr("features", "32")
	time.Sleep(time.Millisecond)
	child.End()
	root.End()
	root.End() // double End must be a no-op

	spans := sink.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	fs, rt := spans[0], spans[1] // emitted in End order
	if fs.Name != "feature_separation" || rt.Name != "adapter.fit" {
		t.Fatalf("spans = %q, %q; want the child, then the root", fs.Name, rt.Name)
	}
	if fs.ParentID != rt.ID {
		t.Errorf("child parent = %d, want root id %d", fs.ParentID, rt.ID)
	}
	if fs.Attrs.Get("features") != "32" {
		t.Errorf("attrs = %v", fs.Attrs)
	}
	if fs.Duration <= 0 {
		t.Error("child span should have positive duration")
	}
	if rt.Duration < fs.Duration {
		t.Error("root should outlast child")
	}
}

func TestSpanNilSafety(t *testing.T) {
	var o *Observer
	sp := o.StartSpan("x") // nil observer -> nil span
	if sp != nil {
		t.Fatal("nil observer should return nil span")
	}
	sp.SetAttr("k", "v")
	child := sp.Child("y")
	child.End()
	sp.End()

	// Observer with no sink also short-circuits.
	o2 := &Observer{}
	if sp := o2.StartSpan("x"); sp != nil {
		t.Fatal("sinkless observer should return nil span")
	}
}

func TestJSONLinesSink(t *testing.T) {
	var buf strings.Builder
	sink := NewJSONLinesSink(&buf)
	o := &Observer{Spans: sink}
	a := o.StartSpan("one")
	a.SetAttr("k", "v")
	a.End()
	o.StartSpan("two").End()

	sc := bufio.NewScanner(strings.NewReader(buf.String()))
	var names []string
	for sc.Scan() {
		var sp SpanData
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		names = append(names, sp.Name)
	}
	if len(names) != 2 || names[0] != "one" || names[1] != "two" {
		t.Errorf("names = %v", names)
	}
}
