package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"netdrift/internal/core"
	"netdrift/internal/fault"
	"netdrift/internal/models"
	"netdrift/internal/nn"
	"netdrift/internal/obs"
)

// ErrClosed is returned by Submit after Close has begun.
var ErrClosed = errors.New("serve: coalescer closed")

// ErrOverloaded is returned by Submit when the admission queue is full;
// the HTTP layer maps it to 429 + Retry-After instead of queueing
// unboundedly.
var ErrOverloaded = errors.New("serve: overloaded, request shed")

// ErrExecPanic wraps a panic recovered inside a batch executor. The
// worker loop survives; the requests in the panicked group fail with
// this error (HTTP 500) and the executor breaker records a failure.
var ErrExecPanic = errors.New("serve: executor panic")

// ErrRowWidth is wrapped by per-request feature-width failures detected
// at batch pickup; the HTTP layer maps it to 400.
var ErrRowWidth = errors.New("serve: row width mismatch")

// errNonFinite marks NaN/Inf detected in adapted output — an unhealthy
// generator, handled by degrading to passthrough.
var errNonFinite = errors.New("serve: non-finite value in adapted output")

// Options tune the coalescer. Zero values select the defaults.
type Options struct {
	// MaxBatch caps a batch in rows: the dispatcher stops growing the
	// pending batch at this many rows and waits for an executor. Default 32.
	MaxBatch int
	// Deprecated: ignored. The dispatcher is work-conserving and has no
	// flush timer.
	MaxWait time.Duration
	// Workers is the number of batch executors, each owning its private
	// adaptation scratch. Default 1.
	Workers int
	// MaxQueue bounds the admission queue in rows: a Submit that would
	// push the queued (not yet executing) rows past this is shed with
	// ErrOverloaded instead of waiting. Default 4096.
	MaxQueue int
	// RequestTimeout is the per-request deadline the HTTP handler applies
	// before Submit, propagated into the coalescer via the request
	// context. Zero disables it.
	RequestTimeout time.Duration
	// Breaker tunes the executor circuit breaker that drives degraded
	// passthrough mode.
	Breaker BreakerConfig
	// Faults arms chaos injection at FaultSiteExec. Nil in production.
	Faults *fault.Injector
	// Obs receives serving metrics. May be nil.
	Obs *obs.Observer
}

func (o Options) withDefaults() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 32
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 4096
	}
	return o
}

// Result is one request's outcome. Rows and Predictions are private copies
// owned by the caller.
type Result struct {
	BundleID    string
	Rows        [][]float64
	Predictions [][]float64 // nil unless requested and the bundle has a classifier
	// Degraded marks a passthrough response: the adaptation machinery was
	// unhealthy (breaker open, batch failure, or non-finite generator
	// output), so Rows echoes the raw input features unadapted.
	Degraded bool
}

// request is one submitted unit riding through the coalescer. done is
// buffered so the executor never blocks handing back a result, even if the
// submitter already gave up on its context. span carries the submitter's
// request span (nil when tracing is disabled) across the coalescer
// boundary so the batch executor can annotate it with queue wait and
// batch membership — the link that keeps a request's identity visible
// after it dissolves into a micro-batch.
type request struct {
	ctx      context.Context
	rows     [][]float64
	seeds    []int64
	predict  bool
	span     *obs.Span
	enqueued time.Time
	done     chan reqOutcome
}

type reqOutcome struct {
	res Result
	err error
}

// Coalescer fans concurrent Adapt requests into micro-batches. It is
// work-conserving: an idle executor takes whatever is pending at once, and
// requests accumulate (up to MaxBatch rows) only while every executor is
// busy. The whole group then runs as few generator forwards as possible on
// one worker. Per-row noise seeds are derived from each request's seed
// before batching, so responses are bit-identical to unbatched serving
// (see core.AdaptBatch).
//
// The resilience layer on top: admission is bounded by MaxQueue rows
// (excess load is shed, never queued), executor panics are recovered
// without killing the worker loop, and a circuit breaker around batch
// execution switches the coalescer into degraded passthrough — raw rows
// echoed with Result.Degraded set — instead of failing every request
// while the adapter is unhealthy. One half-open probe batch after the
// faults stop restores the bit-identical golden path.
type Coalescer struct {
	opts Options
	reg  *Registry

	reqCh  chan *request
	workCh chan []*request

	mu         sync.Mutex
	closed     bool
	submitters sync.WaitGroup // in-flight Submit calls, counted under mu
	dispatcher sync.WaitGroup
	workers    sync.WaitGroup

	queuedRows  atomic.Int64 // rows admitted but not yet picked up by a worker
	execBreaker *Breaker

	queueDepth *obs.Gauge
	shed       *obs.Counter
	degraded   *obs.Counter
	panics     *obs.Counter
}

// NewCoalescer starts the dispatcher and worker pool serving from reg.
func NewCoalescer(reg *Registry, opts Options) *Coalescer {
	opts = opts.withDefaults()
	c := &Coalescer{
		opts:        opts,
		reg:         reg,
		reqCh:       make(chan *request, opts.MaxQueue),
		workCh:      make(chan []*request),
		execBreaker: NewBreaker("executor", opts.Breaker, opts.Obs),
		queueDepth:  opts.Obs.Gauge(obs.MetricServeQueueDepth),
		shed:        opts.Obs.Counter(obs.MetricServeShed),
		degraded:    opts.Obs.Counter(obs.MetricServeDegraded),
		panics:      opts.Obs.Counter(obs.MetricServePanics, "site", "executor"),
	}
	c.dispatcher.Add(1)
	go c.dispatch()
	c.workers.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go c.work()
	}
	return c
}

// Status is the health snapshot of the serving pipeline behind /healthz.
type Status struct {
	ExecBreaker BreakerStatus `json:"exec_breaker"`
	QueuedRows  int64         `json:"queued_rows"`
	MaxQueue    int           `json:"max_queue"`
}

// Status snapshots the executor breaker and admission queue.
func (c *Coalescer) Status() Status {
	return Status{
		ExecBreaker: c.execBreaker.Status(),
		QueuedRows:  c.queuedRows.Load(),
		MaxQueue:    c.opts.MaxQueue,
	}
}

// options exposes the effective options to the HTTP layer.
func (c *Coalescer) options() Options { return c.opts }

// Submit queues rows for adaptation and blocks until the batch containing
// them completes, ctx is done, or the coalescer closes. Row i's noise is
// seeded with core.SampleSeed(seed, i) regardless of how the request is
// batched or split. When the queued backlog exceeds MaxQueue rows the
// request is shed immediately with ErrOverloaded.
//
// span is the caller's request span (nil when tracing is disabled), carried
// through the coalescer so the batch executor can annotate it with queue
// wait, batch size, and the batch span that served it. The span is not
// ended here — the caller owns its lifecycle.
func (c *Coalescer) Submit(ctx context.Context, rows [][]float64, seed int64, predict bool, span *obs.Span) (Result, error) {
	if len(rows) == 0 {
		return Result{}, fmt.Errorf("serve: empty request")
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return Result{}, ErrClosed
	}
	// The submitters group covers only the enqueue: Close may not close
	// reqCh until every accepted Submit has finished sending, but it must
	// not wait on result delivery (results need Close's own drain flush).
	c.submitters.Add(1)
	c.mu.Unlock()

	// Admission control: shed instead of queueing past MaxQueue rows. The
	// counter is released when a worker picks the rows up (runGroup), so
	// it bounds waiting work, not in-flight work.
	n := int64(len(rows))
	if c.queuedRows.Add(n) > int64(c.opts.MaxQueue) {
		c.queuedRows.Add(-n)
		c.submitters.Done()
		c.shed.Inc()
		c.opts.Obs.FlightRecord(obs.FlightKindShed, "coalescer", span.Trace(),
			"queue full")
		return Result{}, ErrOverloaded
	}

	seeds := make([]int64, len(rows))
	for i := range seeds {
		seeds[i] = core.SampleSeed(seed, i)
	}
	req := &request{
		ctx:      ctx,
		rows:     rows,
		seeds:    seeds,
		predict:  predict,
		span:     span,
		enqueued: time.Now(),
		done:     make(chan reqOutcome, 1),
	}
	enqueued := false
	select {
	case c.reqCh <- req:
		enqueued = true
		c.queueDepth.Add(1)
	case <-ctx.Done():
		c.queuedRows.Add(-n)
	}
	c.submitters.Done()
	if !enqueued {
		return Result{}, ctx.Err()
	}
	// Once enqueued the request always gets an outcome (done is buffered,
	// so the executor never blocks on an abandoned waiter), but a caller
	// whose context dies while queued or mid-batch gets unblocked
	// immediately.
	select {
	case out := <-req.done:
		return out.res, out.err
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
}

// Close flushes and serves every queued request, then stops the dispatcher
// and workers. Submit calls that began before Close complete normally;
// later ones fail with ErrClosed.
func (c *Coalescer) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	c.submitters.Wait() // every accepted Submit has now sent on reqCh
	close(c.reqCh)
	c.dispatcher.Wait()
	c.workers.Wait()
}

// dispatch is the single goroutine that groups requests into batches.
// workCh is unbuffered, so handing a batch over succeeds only when an
// executor is idle: with nothing pending the dispatcher blocks for the next
// request, takes in every request already queued (up to MaxBatch rows),
// then either hands the batch to an idle executor or takes a new arrival,
// whichever comes first. A full batch blocks on the handoff. At shutdown
// the pending batch is handed over before workCh closes.
func (c *Coalescer) dispatch() {
	defer c.dispatcher.Done()
	defer close(c.workCh)
	var (
		pending []*request
		rows    int
	)
	flush := func() {
		c.workCh <- pending
		pending = nil
		rows = 0
	}
	// take adds one received request to the pending batch. It reports
	// false once reqCh is closed and drained, after flushing what is left.
	take := func(req *request, ok bool) bool {
		if !ok {
			if len(pending) > 0 {
				flush()
			}
			return false
		}
		c.queueDepth.Add(-1)
		// A request that would overflow the pending batch flushes it
		// first; an oversized request then forms its own batch and is
		// chunked by the executor.
		if rows > 0 && rows+len(req.rows) > c.opts.MaxBatch {
			flush()
		}
		pending = append(pending, req)
		rows += len(req.rows)
		return true
	}
	for {
		if len(pending) == 0 {
			if req, ok := <-c.reqCh; !take(req, ok) {
				return
			}
		}
		for queued := true; queued && rows < c.opts.MaxBatch; {
			select {
			case req, ok := <-c.reqCh:
				if !take(req, ok) {
					return
				}
			default:
				queued = false
			}
		}
		if rows >= c.opts.MaxBatch {
			flush()
			continue
		}
		select {
		case c.workCh <- pending:
			pending = nil
			rows = 0
		case req, ok := <-c.reqCh:
			if !take(req, ok) {
				return
			}
		}
	}
}

// work executes flushed batches. Each worker owns its scratch; the bundle
// pointer is snapshotted once per batch so every response in it comes
// wholly from one artifact even across a concurrent hot-swap.
func (c *Coalescer) work() {
	defer c.workers.Done()
	var adaptScr core.AdaptScratch
	var mlpScr models.MLPScratch
	o := c.opts.Obs
	m := &workerMetrics{
		batchLatency: o.Histogram(obs.MetricServeBatchLatency, obs.LatencyBuckets),
		batchSize:    o.Histogram(obs.MetricServeBatchSize, obs.BatchSizeBuckets),
		batches:      o.Counter(obs.MetricServeBatches),
		rowsTotal:    o.Counter(obs.MetricServeRows),
		queueWait:    o.Histogram(obs.MetricServeQueueWait, obs.LatencyBuckets),
	}
	for group := range c.workCh {
		c.runGroup(group, &adaptScr, &mlpScr, m)
	}
}

type workerMetrics struct {
	batchLatency, batchSize, queueWait *obs.Histogram
	batches, rowsTotal                 *obs.Counter
}

func (c *Coalescer) runGroup(group []*request, adaptScr *core.AdaptScratch, mlpScr *models.MLPScratch, m *workerMetrics) {
	// The group is leaving the admission queue: release its rows.
	var groupRows int64
	for _, req := range group {
		groupRows += int64(len(req.rows))
	}
	c.queuedRows.Add(-groupRows)
	// Drop requests whose submitter already gave up; they still get an
	// outcome so Submit never leaks a waiter.
	live := group[:0]
	for _, req := range group {
		if err := req.ctx.Err(); err != nil {
			req.done <- reqOutcome{err: err}
			continue
		}
		if m.queueWait != nil {
			m.queueWait.Observe(time.Since(req.enqueued).Seconds())
		}
		live = append(live, req)
	}
	if len(live) == 0 {
		return
	}
	bundle := c.reg.Current()
	if bundle == nil {
		// No artifact at all: if loading is circuit-broken there is a
		// bundle that should exist but can't be trusted — degrade to
		// passthrough. Before any load was ever attempted, fail plainly.
		if b := c.reg.Breaker(); b != nil && b.Status().State != BreakerClosed {
			c.degrade(live, "")
			return
		}
		c.failGroup(live, ErrNoBundle)
		return
	}
	// Per-request input-shape guard: a malformed direct Submit must fail
	// its own request, not poison the batch or trip the breaker.
	width := bundle.Adapter.NumFeatures()
	shaped := live[:0]
	for _, req := range live {
		if badRow := rowWidthMismatch(req.rows, width); badRow >= 0 {
			req.done <- reqOutcome{err: fmt.Errorf("%w: rows[%d] has %d features, bundle %q expects %d",
				ErrRowWidth, badRow, len(req.rows[badRow]), bundle.ID, width)}
			continue
		}
		shaped = append(shaped, req)
	}
	live = shaped
	if len(live) == 0 {
		return
	}
	// The tracing link across the coalescer boundary: one batch span per
	// executed group, carrying every member request's trace ID, while each
	// request span learns how long it queued and which batch served it.
	// With tracing disabled every span here is nil and this costs a few
	// predictable branches, no allocation.
	batchSpan := c.startBatchSpan(live)
	if !c.execBreaker.Allow() {
		batchSpan.SetAttr("outcome", "degraded")
		batchSpan.SetAttr("reason", "breaker-open")
		batchSpan.End()
		c.degrade(live, bundle.ID)
		return
	}
	outRows, outPreds, err := c.execute(bundle, live, adaptScr, mlpScr, m)
	if err == nil {
		batchSpan.SetAttr("outcome", "ok")
	} else {
		batchSpan.SetAttr("outcome", "error")
		batchSpan.SetAttr("error", err.Error())
	}
	batchSpan.End()
	switch {
	case err == nil:
		c.execBreaker.Success()
	case errors.Is(err, errGroupCanceled):
		// Every submitter gave up mid-batch; not an adapter failure.
		c.failGroup(live, err)
		return
	case errors.Is(err, ErrExecPanic):
		// A panicked executor cannot vouch for any partial output: fail
		// the group (HTTP 500), count the breaker failure, keep serving.
		c.execBreaker.Fail()
		c.failGroup(live, err)
		return
	default:
		// Batch error or non-finite output: the adapter is unhealthy but
		// the raw features still carry signal — degrade, don't fail.
		c.execBreaker.Fail()
		c.degrade(live, bundle.ID)
		return
	}
	m.rowsTotal.Add(float64(len(outRows)))
	// Scatter the flat results back to their requests.
	off := 0
	for _, req := range live {
		n := len(req.rows)
		res := Result{BundleID: bundle.ID, Rows: outRows[off : off+n : off+n]}
		if req.predict && outPreds != nil {
			res.Predictions = outPreds[off : off+n : off+n]
		}
		req.done <- reqOutcome{res: res}
		off += n
	}
}

// startBatchSpan opens the executor-side span for one picked-up group and
// stitches the cross-boundary links: the batch span is a child of the
// first traced member (inheriting its trace ID) and carries every member's
// trace and span ID as attrs; each member span learns its queue wait, the
// total batch row count, and the batch span that served it. Returns nil —
// and does no work at all — when no member is traced.
func (c *Coalescer) startBatchSpan(live []*request) *obs.Span {
	var first *obs.Span
	for _, req := range live {
		if req.span != nil {
			first = req.span
			break
		}
	}
	if first == nil {
		return nil
	}
	sp := first.Child("serve.batch")
	var rows int
	for _, req := range live {
		rows += len(req.rows)
	}
	var traces, members strings.Builder
	n := 0
	batchID := strconv.FormatUint(sp.ID(), 10)
	batchRows := strconv.Itoa(rows)
	for _, req := range live {
		if req.span == nil {
			continue
		}
		if n > 0 {
			traces.WriteByte(',')
			members.WriteByte(',')
		}
		traces.WriteString(req.span.Trace())
		members.WriteString(strconv.FormatUint(req.span.ID(), 10))
		n++
		req.span.SetAttr("queue_wait_us", strconv.FormatInt(time.Since(req.enqueued).Microseconds(), 10))
		req.span.SetAttr("batch_span", batchID)
		req.span.SetAttr("batch_rows", batchRows)
	}
	sp.SetAttr("requests", strconv.Itoa(len(live)))
	sp.SetAttr("rows", batchRows)
	sp.SetAttr("request_ids", traces.String())
	sp.SetAttr("member_spans", members.String())
	return sp
}

// errGroupCanceled aborts a batch whose submitters have all given up.
var errGroupCanceled = errors.New("serve: every request in batch canceled")

// execute runs one batch group end to end, returning defensive copies of
// the adapted rows (and predictions when requested). Any panic — from
// chaos injection or a kernel bug — is recovered into ErrExecPanic so the
// worker loop survives. Adapted output is scanned for NaN/Inf, which is
// reported as an error (the degradation trigger) rather than served.
func (c *Coalescer) execute(bundle *Bundle, live []*request, adaptScr *core.AdaptScratch,
	mlpScr *models.MLPScratch, m *workerMetrics) (outRows, outPreds [][]float64, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			c.panics.Inc()
			outRows, outPreds = nil, nil
			err = fmt.Errorf("%w: %v", ErrExecPanic, rec)
			// Black-box the incident: the ring captures the panic in its
			// timeline, and an armed recorder dumps itself to disk so the
			// lead-up survives even if the process dies next.
			c.opts.Obs.FlightRecord(obs.FlightKindPanic, "executor", "", err.Error())
			c.opts.Obs.FlightSnapshot("executor-panic")
		}
	}()
	if err := c.opts.Faults.Fire(FaultSiteExec); err != nil {
		return nil, nil, err
	}
	start := time.Now()
	// Stitch the group into one flat row list, then run it in chunks of
	// MaxBatch (a single oversized request spans several chunks).
	var allRows [][]float64
	var allSeeds []int64
	for _, req := range live {
		allRows = append(allRows, req.rows...)
		allSeeds = append(allSeeds, req.seeds...)
	}
	wantPredict := bundle.Classifier != nil
	if wantPredict {
		wantPredict = false
		for _, req := range live {
			if req.predict {
				wantPredict = true
				break
			}
		}
	}
	outRows = make([][]float64, 0, len(allRows))
	for lo := 0; lo < len(allRows); lo += c.opts.MaxBatch {
		// A long split (oversized request, slow executor) re-checks the
		// submitters between chunks: if every waiter is gone, stop
		// burning compute on undeliverable results.
		if lo > 0 && allCanceled(live) {
			return nil, nil, errGroupCanceled
		}
		hi := lo + c.opts.MaxBatch
		if hi > len(allRows) {
			hi = len(allRows)
		}
		adapted, err := bundle.Adapter.AdaptBatch(allRows[lo:hi], allSeeds[lo:hi], adaptScr)
		if err != nil {
			return nil, nil, err
		}
		if !finiteTensor(adapted) {
			return nil, nil, errNonFinite
		}
		var preds *nn.Tensor
		if wantPredict {
			preds, err = bundle.Classifier.PredictProbaT(adapted, mlpScr)
			if err != nil {
				return nil, nil, err
			}
		}
		// The scratch tensors are reused next chunk: copy results out.
		for i := 0; i < adapted.Rows(); i++ {
			outRows = append(outRows, append([]float64(nil), adapted.Row(i)...))
			if preds != nil {
				outPreds = append(outPreds, append([]float64(nil), preds.Row(i)...))
			}
		}
		m.batchSize.Observe(float64(hi - lo))
		m.batches.Inc()
	}
	m.batchLatency.Observe(time.Since(start).Seconds())
	return outRows, outPreds, nil
}

// degrade serves the group in passthrough mode: each request gets its raw
// input rows echoed back with Degraded set, so clients keep receiving
// feature vectors (the invariant-carrying raw signal) while the adapter
// heals. bundleID may be empty when no bundle is installed.
func (c *Coalescer) degrade(live []*request, bundleID string) {
	for _, req := range live {
		rows := make([][]float64, len(req.rows))
		for i, r := range req.rows {
			rows[i] = append([]float64(nil), r...)
		}
		c.degraded.Inc()
		c.opts.Obs.FlightRecord(obs.FlightKindDegrade, "coalescer", req.span.Trace(), bundleID)
		req.done <- reqOutcome{res: Result{BundleID: bundleID, Rows: rows, Degraded: true}}
	}
}

func (c *Coalescer) failGroup(live []*request, err error) {
	for _, req := range live {
		req.done <- reqOutcome{err: err}
	}
}

// rowWidthMismatch returns the index of the first row whose length is not
// width, or -1.
func rowWidthMismatch(rows [][]float64, width int) int {
	for i, r := range rows {
		if len(r) != width {
			return i
		}
	}
	return -1
}

func allCanceled(live []*request) bool {
	for _, req := range live {
		if req.ctx.Err() == nil {
			return false
		}
	}
	return true
}

// finiteTensor reports whether every element of t is finite.
func finiteTensor(t *nn.Tensor) bool {
	for i := 0; i < t.Rows(); i++ {
		for _, v := range t.Row(i) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
	}
	return true
}
