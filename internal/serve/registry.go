package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"netdrift/internal/fault"
	"netdrift/internal/obs"
)

// ErrNoBundle is returned when serving is attempted before any bundle has
// been installed.
var ErrNoBundle = errors.New("serve: no bundle installed")

// ErrBreakerOpen is returned by LoadFile while the bundle-load circuit
// breaker is open: a recently failing bundle file is not re-read or
// re-parsed until the breaker's backoff admits a half-open probe.
var ErrBreakerOpen = errors.New("serve: bundle load breaker open")

// Fault-injection site names threaded through the serving stack (see
// internal/fault). Arming them in an Injector makes chaos runs hit the
// exact production code paths.
const (
	// FaultSiteLoad fires inside Registry.LoadFile, before the disk read.
	FaultSiteLoad = "bundle.load"
	// FaultSiteExec fires inside the coalescer's batch executor, before
	// the adaptation kernels run.
	FaultSiteExec = "batch.exec"
	// FaultSiteHandler fires inside the /v1/adapt HTTP handler, after
	// decoding but before Submit.
	FaultSiteHandler = "http.adapt"
)

func init() {
	fault.RegisterSite(FaultSiteLoad)
	fault.RegisterSite(FaultSiteExec)
	fault.RegisterSite(FaultSiteHandler)
}

// Registry holds the live serving bundle behind an atomic pointer. Readers
// (batch executors) take one snapshot of the pointer per micro-batch and
// run the whole batch against it, so a concurrent Swap can never produce a
// response stitched from two bundles. Swap is wait-free for readers: no
// lock is ever taken on the request path.
type Registry struct {
	current atomic.Pointer[Bundle]
	obs     *obs.Observer
	breaker *Breaker        // nil: loads are never broken
	faults  *fault.Injector // nil: no chaos

	// Singleflight state for LoadFile: concurrent loads of the same path
	// share one disk read + deserialization instead of thundering.
	mu     sync.Mutex
	flight map[string]*loadCall
}

type loadCall struct {
	done   chan struct{}
	bundle *Bundle
	err    error
}

// NewRegistry returns an empty registry. obs may be nil.
func NewRegistry(o *obs.Observer) *Registry {
	return &Registry{obs: o, flight: make(map[string]*loadCall)}
}

// SetBreaker installs a circuit breaker around LoadFile. Call before
// serving starts; nil disables breaking.
func (r *Registry) SetBreaker(b *Breaker) { r.breaker = b }

// Breaker returns the load breaker (nil if none installed).
func (r *Registry) Breaker() *Breaker { return r.breaker }

// SetFaults arms fault injection for bundle loading (site FaultSiteLoad).
func (r *Registry) SetFaults(f *fault.Injector) { r.faults = f }

// Current returns the live bundle, or nil before the first Swap.
func (r *Registry) Current() *Bundle { return r.current.Load() }

// Swap atomically installs b as the live bundle and returns the previous
// one (nil on first install). In-flight micro-batches that already
// snapshotted the old bundle finish against it.
func (r *Registry) Swap(b *Bundle) *Bundle {
	old := r.current.Swap(b)
	r.obs.Counter(obs.MetricServeSwaps).Inc()
	id := ""
	if b != nil {
		id = b.ID
	}
	r.obs.FlightRecord(obs.FlightKindSwap, "registry", "", id)
	return old
}

// LoadFile reads a bundle from disk and installs it. Concurrent calls for
// the same path coalesce into one load (singleflight); every caller gets
// the same bundle or the same error. The bundle is swapped in only by the
// call that performed the read.
//
// With a breaker installed, consecutive load failures trip it open and
// later calls fail fast with ErrBreakerOpen — a corrupt or missing file
// is re-read only when the jittered backoff admits a half-open probe. A
// failed load never disturbs the currently installed bundle.
func (r *Registry) LoadFile(path string) (*Bundle, error) {
	r.mu.Lock()
	if c, ok := r.flight[path]; ok {
		// Joining an in-flight load is free regardless of breaker state
		// (it consumes no extra disk reads or probe slots).
		r.mu.Unlock()
		<-c.done
		return c.bundle, c.err
	}
	if !r.breaker.Allow() {
		r.mu.Unlock()
		return nil, ErrBreakerOpen
	}
	c := &loadCall{done: make(chan struct{})}
	r.flight[path] = c
	r.mu.Unlock()

	func() {
		// A panic during load (chaos-injected or a corrupt-payload decode
		// bug) must not strand the singleflight entry or kill the caller.
		defer func() {
			if rec := recover(); rec != nil {
				r.obs.Counter(obs.MetricServePanics, "site", "loader").Inc()
				c.err = fmt.Errorf("serve: bundle load panic: %v", rec)
			}
		}()
		if c.err = r.faults.Fire(FaultSiteLoad); c.err == nil {
			c.bundle, c.err = LoadBundleFile(path)
		}
	}()
	r.obs.Counter(obs.MetricServeBundleLoads).Inc()
	if c.err == nil {
		r.breaker.Success()
		r.Swap(c.bundle)
	} else {
		r.breaker.Fail()
	}

	r.mu.Lock()
	delete(r.flight, path)
	r.mu.Unlock()
	close(c.done)
	return c.bundle, c.err
}
