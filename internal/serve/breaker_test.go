package serve

import (
	"strings"
	"sync"
	"testing"
	"time"

	"netdrift/internal/obs"
)

// fakeClock is a manually advanced clock for breaker timing tests. It is
// mutex-guarded so a test can advance it while a server's goroutines read
// it.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestBreaker(cfg BreakerConfig, o *obs.Observer) (*Breaker, *fakeClock) {
	b := NewBreaker("test", cfg, o)
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b.now = clk.now
	return b, clk
}

func TestBreakerTripsAfterThreshold(t *testing.T) {
	o := obs.New()
	b, _ := newTestBreaker(BreakerConfig{FailThreshold: 3, BaseBackoff: time.Second}, o)
	for i := 0; i < 2; i++ {
		b.Fail()
		if !b.Allow() {
			t.Fatalf("breaker tripped after %d failures, threshold 3", i+1)
		}
	}
	b.Fail() // third consecutive failure trips
	if b.Allow() {
		t.Fatal("breaker still allows after threshold failures")
	}
	if st := b.Status(); st.State != BreakerOpen || st.RetryIn == "" {
		t.Errorf("open status = %+v", st)
	}
	// A success while closed resets the consecutive count.
	b2, _ := newTestBreaker(BreakerConfig{FailThreshold: 3}, nil)
	b2.Fail()
	b2.Fail()
	b2.Success()
	b2.Fail()
	b2.Fail()
	if !b2.Allow() {
		t.Error("Success did not reset the consecutive-failure count")
	}
	// Transition was counted.
	if v, ok := o.Registry.Value(obs.MetricServeBreakerTransitions, "breaker", "test", "to", BreakerOpen); !ok || v != 1 {
		t.Errorf("open transitions = %v (ok=%v), want 1", v, ok)
	}
}

func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	b, clk := newTestBreaker(BreakerConfig{FailThreshold: 1, BaseBackoff: time.Second, MaxBackoff: time.Second}, nil)
	b.Fail()
	if b.Allow() {
		t.Fatal("open breaker allowed")
	}
	// Jitter keeps the backoff within [0.5s, 1.5s); after 1.5s the next
	// Allow must be the half-open probe, and only one probe may be out.
	clk.advance(1500 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("backoff elapsed but probe refused")
	}
	if st := b.Status(); st.State != BreakerHalfOpen {
		t.Fatalf("state after probe admit = %+v", st)
	}
	if b.Allow() {
		t.Fatal("second concurrent probe allowed in half-open")
	}
	// Probe success closes; everything flows again.
	b.Success()
	if st := b.Status(); st.State != BreakerClosed {
		t.Fatalf("state after probe success = %+v", st)
	}
	if !b.Allow() || !b.Allow() {
		t.Fatal("closed breaker refused")
	}
}

func TestBreakerBackoffDoublesWithJitter(t *testing.T) {
	base := 100 * time.Millisecond
	b, clk := newTestBreaker(BreakerConfig{FailThreshold: 1, BaseBackoff: base, MaxBackoff: time.Minute}, nil)
	// openFor measures how long the breaker refuses by advancing the clock
	// until Allow admits a probe.
	openFor := func() time.Duration {
		start := clk.t
		step := time.Millisecond
		for i := 0; i < 200000; i++ {
			if b.Allow() {
				return clk.t.Sub(start)
			}
			clk.advance(step)
		}
		t.Fatal("breaker never reopened")
		return 0
	}
	within := func(d, nominal time.Duration) bool {
		return d >= nominal/2 && d <= nominal*3/2+time.Millisecond
	}
	b.Fail()
	if d := openFor(); !within(d, base) {
		t.Errorf("first backoff %v outside jitter envelope of %v", d, base)
	}
	b.Fail() // half-open probe failed: doubled interval
	if d := openFor(); !within(d, 2*base) {
		t.Errorf("second backoff %v outside jitter envelope of %v", d, 2*base)
	}
	b.Fail()
	if d := openFor(); !within(d, 4*base) {
		t.Errorf("third backoff %v outside jitter envelope of %v", d, 4*base)
	}
	// A probe success resets the exponent back to base.
	b.Success()
	b.Fail()
	if d := openFor(); !within(d, base) {
		t.Errorf("post-success backoff %v did not reset to %v envelope", d, base)
	}
}

func TestBreakerBackoffCapped(t *testing.T) {
	b, clk := newTestBreaker(BreakerConfig{FailThreshold: 1, BaseBackoff: time.Second, MaxBackoff: 4 * time.Second}, nil)
	for i := 0; i < 12; i++ { // would be 2048s uncapped
		b.Fail()
		clk.advance(7 * time.Second) // > 1.5 * MaxBackoff always reopens
		if !b.Allow() {
			t.Fatalf("trip %d: backoff exceeded 1.5*MaxBackoff", i)
		}
	}
}

func TestBreakerNilAndStatus(t *testing.T) {
	var b *Breaker
	if !b.Allow() {
		t.Error("nil breaker refused")
	}
	b.Success()
	b.Fail()
	if st := b.Status(); st.State != BreakerClosed {
		t.Errorf("nil status = %+v", st)
	}
}

func TestBreakerTransitionsExposition(t *testing.T) {
	o := obs.New()
	b, clk := newTestBreaker(BreakerConfig{FailThreshold: 1, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond}, o)
	b.Fail()
	clk.advance(time.Second)
	b.Allow() // half-open
	b.Success()
	var sb strings.Builder
	if err := o.Registry.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`netdrift_serve_breaker_transitions_total{breaker="test",to="open"} 1`,
		`netdrift_serve_breaker_transitions_total{breaker="test",to="half-open"} 1`,
		`netdrift_serve_breaker_transitions_total{breaker="test",to="closed"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}
