// Package ctrl closes the paper's drift-mitigation loop: a streaming
// ingest path accumulates target-domain telemetry, the monitor's KS/PSI
// verdict (behind hysteresis and a cooldown so flapping drift cannot
// thrash refits) triggers a background few-shot FS+GAN refit, the refit
// candidate must beat the incumbent on a held-out probe set by a minimum
// margin (the shadow gate) before the registry hot-swaps it in, and a
// post-promotion watchdog rolls back to the retained previous bundle if
// serving burns past the SLO threshold. The downstream classifier is never
// retrained — only the adapter refits — which is the paper's central
// claim operationalized.
//
// The controller is crash-safe: its durable state (epoch counter, promoted
// and incumbent bundle paths, cooldown stamp, and the per-class shot
// reservoir) checkpoints atomically (.tmp+rename, CRC-guarded — see
// checkpoint.go), so a restarted controller reinstalls its last promoted
// bundle and resumes idle instead of re-triggering the refit it already
// shipped.
package ctrl

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"netdrift/internal/core"
	"netdrift/internal/dataset"
	"netdrift/internal/fault"
	"netdrift/internal/models"
	"netdrift/internal/monitor"
	"netdrift/internal/obs"
	"netdrift/internal/serve"
)

// Chaos sites fired on the controller's state-changing paths (see
// internal/fault). Arming them exercises refit retry/backoff, promote
// failure handling, and rollback resilience.
const (
	// FaultSiteRefit fires at the top of every refit attempt.
	FaultSiteRefit = "ctrl.refit"
	// FaultSitePromote fires at the top of every promote attempt, before
	// the candidate bundle file is written.
	FaultSitePromote = "ctrl.promote"
	// FaultSiteRollback fires at the top of every rollback attempt. If
	// chaos exhausts the retries the swap is forced anyway: rollback is
	// the safety net and must not itself be deniable.
	FaultSiteRollback = "ctrl.rollback"
)

func init() {
	fault.RegisterSite(FaultSiteRefit)
	fault.RegisterSite(FaultSitePromote)
	fault.RegisterSite(FaultSiteRollback)
}

// Event kinds emitted on every controller transition (obs counter
// MetricCtrlTransitions{event=...}, flight-recorder kind "ctrl", and the
// OnEvent callback).
const (
	EventDriftDetected = "drift-detected"
	EventRefitStart    = "refit-start"
	EventRefitRetry    = "refit-retry"
	EventRefitFail     = "refit-fail"
	EventGatePass      = "gate-pass"
	EventGateFail      = "gate-fail"
	EventPromote       = "promote"
	EventPromoteFail   = "promote-fail"
	EventWatchClear    = "watch-clear"
	EventRollback      = "rollback"
	EventResume        = "resume"
)

// Controller phases, as reported by Status.
const (
	PhaseIdle      = "idle"
	PhaseRefitting = "refitting"
	PhaseGating    = "gating"
	PhaseWatching  = "watching"
)

// Event is one controller transition.
type Event struct {
	Kind   string
	Epoch  int
	At     time.Time
	Detail string
}

// Candidate is the product of one refit: a freshly fitted adapter and,
// optionally, a classifier. A nil Classifier keeps serving the incumbent's
// — the paper's protocol, where drift response never retrains downstream.
type Candidate struct {
	ID         string
	Adapter    *core.Adapter
	Classifier *models.MLPClassifier
}

// RefitFunc produces a refit candidate from the reservoir's labelled
// shots. It runs on a background goroutine under retry + per-attempt
// timeout; it should honor ctx where it can. epoch is the candidate's
// 1-based promotion number (for IDs and seeds).
type RefitFunc func(ctx context.Context, shots *dataset.Dataset, epoch int) (*Candidate, error)

// Config wires a Controller. Detector, Registry, Refit, Probe, and
// NumClasses are required; everything else defaults sanely.
type Config struct {
	// Detector is the fitted drift detector. The controller owns it from
	// here on (it refits the reference after successful promotions).
	Detector *monitor.Detector
	// Registry receives promoted bundles and supplies the incumbent.
	Registry *serve.Registry
	// Refit builds a candidate from the reservoir shots.
	Refit RefitFunc
	// Probe is the held-out labelled probe set the shadow gate scores on.
	Probe *dataset.Dataset
	// NumClasses sizes the macro-F1 computation.
	NumClasses int

	// WindowSize is the sliding drift-check window in rows (default 64).
	WindowSize int
	// CheckEvery runs a drift check after this many ingested rows once the
	// window is full (default WindowSize/2).
	CheckEvery int
	// DriftUp is the hysteresis: consecutive drifted verdicts required to
	// trigger a campaign (default 2). A single clean verdict resets it.
	DriftUp int
	// Cooldown suppresses new campaigns after any campaign ends, however
	// it ended (default 30s) — flapping drift cannot thrash refits.
	Cooldown time.Duration
	// ShotsPerClass bounds the per-class reservoir (default 32).
	ShotsPerClass int
	// MinShotsPerClass gates triggering: every observed class must have at
	// least this many retained shots (default 1).
	MinShotsPerClass int

	// Retry bounds refit and promote attempts; rollback shares it.
	Retry RetryConfig
	// MinWinMargin is the macro-F1 points ([0,100] scale) the candidate
	// must beat the incumbent by at the gate. Zero selects the default
	// (1.0); negative means the candidate need only match.
	MinWinMargin float64

	// BundleDir receives promoted bundle files, bundle-epoch%06d.<ext>
	// (default ".").
	BundleDir string
	// BundleFormat encodes promoted bundles (default binary/NDBF).
	BundleFormat serve.BundleFormat
	// InitialBundlePath seeds the incumbent path bookkeeping (the bundle
	// serving before the first promotion), for checkpoints and status.
	InitialBundlePath string

	// SLO, when set, feeds the watchdog the /v1/adapt burn rate.
	SLO *obs.SLOSet
	// WatchFor is how long a promotion stays under the watchdog before it
	// is trusted (default 2m).
	WatchFor time.Duration
	// WatchEvery is the watchdog poll interval (default 2s).
	WatchEvery time.Duration
	// WatchWindow is the SLO stats window the watchdog reads (default 1m).
	WatchWindow time.Duration
	// MinWatchRequests is the evidence floor: neither rollback trigger
	// fires on fewer requests (default 20).
	MinWatchRequests int

	// CheckpointPath enables atomic state checkpoints ("" = off).
	CheckpointPath string

	// Seed scopes the reservoir sampling and retry jitter.
	Seed int64
	// Faults arms the ctrl.* chaos sites (nil = no chaos).
	Faults *fault.Injector
	// Obs records counters, gauges, flight events, and spans.
	Obs *obs.Observer
	// OnEvent observes every transition, synchronously. It must not call
	// back into the Controller (it may run under the controller's lock).
	// A campaign's terminal event fires after the return to idle.
	OnEvent func(Event)
}

const (
	// rollbackBurn rolls back when the /v1/adapt burn rate meets it:
	// burning budget twice as fast as sustainable.
	rollbackBurn = 2.0
	// rollbackDegradeFrac rolls back when this fraction of post-promote
	// requests were served degraded/passthrough. Degraded responses do
	// not burn the SLO budget, so the watchdog tracks them separately.
	rollbackDegradeFrac = 0.5
	// checkpointEvery also checkpoints after this many ingested rows, on
	// top of every transition.
	checkpointEvery = 256
)

func (c *Config) applyDefaults() {
	if c.WindowSize == 0 {
		c.WindowSize = 64
	}
	if c.CheckEvery == 0 {
		c.CheckEvery = c.WindowSize / 2
	}
	if c.CheckEvery < 1 {
		c.CheckEvery = 1
	}
	if c.DriftUp == 0 {
		c.DriftUp = 2
	}
	if c.Cooldown == 0 {
		c.Cooldown = 30 * time.Second
	}
	if c.ShotsPerClass == 0 {
		c.ShotsPerClass = 32
	}
	if c.MinShotsPerClass == 0 {
		c.MinShotsPerClass = 1
	}
	c.Retry = c.Retry.withDefaults()
	if c.MinWinMargin == 0 {
		c.MinWinMargin = 1.0
	} else if c.MinWinMargin < 0 {
		c.MinWinMargin = 0
	}
	if c.BundleDir == "" {
		c.BundleDir = "."
	}
	if c.BundleFormat == "" {
		c.BundleFormat = serve.FormatBinary
	}
	if c.WatchFor == 0 {
		c.WatchFor = 2 * time.Minute
	}
	if c.WatchEvery == 0 {
		c.WatchEvery = 2 * time.Second
	}
	if c.WatchWindow == 0 {
		c.WatchWindow = time.Minute
	}
	if c.MinWatchRequests == 0 {
		c.MinWatchRequests = 20
	}
}

// Controller runs the closed drift-response loop. Construct with New,
// launch with Start, feed with IngestRows (it implements
// serve.IngestSink), stop with Close.
type Controller struct {
	cfg Config
	o   *obs.Observer

	ctx     context.Context
	cancel  context.CancelFunc
	closed  chan struct{}
	trigger chan struct{}
	wg      sync.WaitGroup

	campMu   sync.Mutex // serializes campaigns (loop + ForcePromote)
	retryRng *rand.Rand // jitter source; guarded by campMu

	ckptMu sync.Mutex // serializes checkpoint file writes

	mu            sync.Mutex
	phase         string
	res           *reservoir
	window        [][]float64 // ring of copied rows
	winNext       int
	winCount      int
	sinceCheck    int
	sinceCkpt     int
	driftStreak   int
	cooldownUntil time.Time
	driftAt       time.Time
	epoch         int
	ingested      int64
	incumbentPath string  // bundle serving before the current/last campaign
	promotedPath  string  // bundle installed by the last promotion
	lastRecovery  float64 // seconds, last successful campaign
	restored      bool    // a checkpoint was loaded

	startOnce sync.Once
	closeOnce sync.Once
}

// New builds a controller and, when CheckpointPath names an existing
// checkpoint, restores its durable state (a corrupt checkpoint is an
// error — silent fallback would re-trigger the refit the file was
// recording). Call Start to launch the loop.
func New(cfg Config) (*Controller, error) {
	cfg.applyDefaults()
	switch {
	case cfg.Detector == nil:
		return nil, errors.New("ctrl: Config.Detector is required")
	case cfg.Detector.Width() == 0:
		return nil, errors.New("ctrl: Config.Detector must be fitted")
	case cfg.Registry == nil:
		return nil, errors.New("ctrl: Config.Registry is required")
	case cfg.Refit == nil:
		return nil, errors.New("ctrl: Config.Refit is required")
	case cfg.Probe == nil || len(cfg.Probe.X) == 0:
		return nil, errors.New("ctrl: Config.Probe must have rows")
	case cfg.NumClasses < 2:
		return nil, errors.New("ctrl: Config.NumClasses must be >= 2")
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &Controller{
		cfg:           cfg,
		o:             cfg.Obs,
		ctx:           ctx,
		cancel:        cancel,
		closed:        make(chan struct{}),
		trigger:       make(chan struct{}, 1),
		retryRng:      rand.New(rand.NewSource(cfg.Seed ^ 0x5ca1ab1e)),
		phase:         PhaseIdle,
		res:           newReservoir(cfg.ShotsPerClass, cfg.Seed),
		window:        make([][]float64, cfg.WindowSize),
		incumbentPath: cfg.InitialBundlePath,
	}
	if cfg.CheckpointPath != "" {
		st, err := loadCheckpointFile(cfg.CheckpointPath)
		if err != nil {
			cancel()
			return nil, fmt.Errorf("ctrl: load checkpoint %s: %w", cfg.CheckpointPath, err)
		}
		if st != nil {
			c.restoreFrom(st)
		}
	}
	c.o.Gauge(obs.MetricCtrlEpoch).Set(float64(c.epoch))
	return c, nil
}

func (c *Controller) restoreFrom(st *checkpointState) {
	c.epoch = st.epoch
	if st.cooldownUntil != 0 {
		c.cooldownUntil = time.Unix(0, st.cooldownUntil)
	}
	if st.incumbentPath != "" {
		c.incumbentPath = st.incumbentPath
	}
	c.promotedPath = st.promotedPath
	c.lastRecovery = st.lastRecoverySec
	for i := range st.classes {
		cr := st.classes[i]
		c.res.byLabel[cr.label] = &cr
	}
	c.restored = true
}

// Start launches the campaign loop. When a checkpoint was restored it
// first reinstalls the last promoted bundle, so a crashed controller
// resumes serving its own work without a refit. Idempotent.
func (c *Controller) Start() {
	c.startOnce.Do(func() {
		if c.restored {
			detail := fmt.Sprintf("epoch=%d reservoir=%d", c.epoch, c.res.totalRows())
			if p := c.promotedPath; p != "" {
				if _, err := c.cfg.Registry.LoadFile(p); err != nil {
					detail += " reinstall-failed: " + err.Error()
				} else {
					detail += " reinstalled=" + p
				}
			}
			c.emit(EventResume, detail, c.epoch)
			c.o.Gauge(obs.MetricCtrlReservoirRows).Set(float64(c.res.totalRows()))
		}
		c.wg.Add(1)
		go c.loop()
	})
}

// Close stops the loop, waits for any in-flight campaign step to unwind,
// and writes a final checkpoint.
func (c *Controller) Close() {
	c.closeOnce.Do(func() {
		close(c.closed)
		c.cancel()
		c.wg.Wait()
		c.checkpoint("close")
	})
}

// emit records one transition everywhere at once: transition counter,
// flight-recorder event, and the OnEvent callback. May run under c.mu —
// OnEvent must not call back into the controller.
func (c *Controller) emit(kind, detail string, epoch int) {
	c.o.Counter(obs.MetricCtrlTransitions, "event", kind).Inc()
	c.o.FlightRecord(obs.FlightKindCtrl, kind, "", detail)
	if c.cfg.OnEvent != nil {
		c.cfg.OnEvent(Event{Kind: kind, Epoch: epoch, At: time.Now(), Detail: detail})
	}
}

// IngestRows implements serve.IngestSink: it feeds target-domain telemetry
// into the drift window and (labelled rows only; label < 0 means
// unlabelled) the shot reservoir, and runs one drift check for every
// CheckEvery rows, each on the window as it stood at that row.
// Malformed rows are rejected with serve.ErrIngestRejected before any
// state changes.
func (c *Controller) IngestRows(rows [][]float64, labels []int) (serve.IngestSummary, error) {
	var sum serve.IngestSummary
	if len(rows) == 0 {
		return sum, fmt.Errorf("%w: rows must not be empty", serve.ErrIngestRejected)
	}
	if len(labels) != 0 && len(labels) != len(rows) {
		return sum, fmt.Errorf("%w: %d labels for %d rows", serve.ErrIngestRejected, len(labels), len(rows))
	}
	width := c.cfg.Detector.Width()
	for i, row := range rows {
		if len(row) != width {
			return sum, fmt.Errorf("%w: rows[%d] has %d features, want %d", serve.ErrIngestRejected, i, len(row), width)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return sum, fmt.Errorf("%w: rows[%d][%d] is non-finite", serve.ErrIngestRejected, i, j)
			}
		}
	}

	c.mu.Lock()
	for i, row := range rows {
		slot := c.window[c.winNext]
		if slot == nil {
			slot = make([]float64, width)
			c.window[c.winNext] = slot
		}
		copy(slot, row)
		c.winNext = (c.winNext + 1) % len(c.window)
		if c.winCount < len(c.window) {
			c.winCount++
		}
		if len(labels) != 0 && labels[i] >= 0 {
			c.res.add(row, labels[i])
		}
		c.ingested++
		c.sinceCheck++
		c.sinceCkpt++
		if c.winCount == len(c.window) && c.sinceCheck >= c.cfg.CheckEvery {
			c.sinceCheck = 0
			c.checkLocked()
		}
	}
	c.o.Counter(obs.MetricCtrlIngestRows).Add(float64(len(rows)))
	c.o.Gauge(obs.MetricCtrlReservoirRows).Set(float64(c.res.totalRows()))
	needCkpt := c.cfg.CheckpointPath != "" && c.sinceCkpt >= checkpointEvery
	if needCkpt {
		c.sinceCkpt = 0
	}
	sum.Accepted = len(rows)
	sum.Phase = c.phase
	sum.DriftStreak = c.driftStreak
	sum.ReservoirRows = c.res.totalRows()
	c.mu.Unlock()

	if needCkpt {
		c.checkpoint("ingest")
	}
	return sum, nil
}

// checkLocked runs one drift check over the full window and applies the
// hysteresis + cooldown trigger policy. Caller holds c.mu.
func (c *Controller) checkLocked() {
	rep, err := c.cfg.Detector.Check(c.window)
	if err != nil {
		// Ingest validated width and finiteness, so this is a detector
		// misconfiguration; surface it on the flight recorder.
		c.o.FlightRecord(obs.FlightKindCtrl, "check-error", "", err.Error())
		return
	}
	if !rep.Drifted {
		c.driftStreak = 0
		return
	}
	c.driftStreak++
	if c.phase != PhaseIdle ||
		c.driftStreak < c.cfg.DriftUp ||
		time.Now().Before(c.cooldownUntil) ||
		c.res.totalRows() == 0 ||
		c.res.minClassCount() < c.cfg.MinShotsPerClass {
		return
	}
	c.phase = PhaseRefitting
	c.driftAt = time.Now()
	c.driftStreak = 0
	c.emit(EventDriftDetected,
		fmt.Sprintf("features=%d/%d maxPSI=%.3f reservoir=%d",
			len(rep.DriftedFeatures), len(rep.Features), rep.MaxPSI, c.res.totalRows()),
		c.epoch)
	select {
	case c.trigger <- struct{}{}:
	default:
	}
}

// loop is the campaign goroutine: one campaign at a time, triggered by the
// drift policy.
func (c *Controller) loop() {
	defer c.wg.Done()
	for {
		select {
		case <-c.closed:
			return
		case <-c.trigger:
			c.campMu.Lock()
			c.campaign()
			c.campMu.Unlock()
		}
	}
}

// endCampaign returns to idle and arms the cooldown, whatever the
// campaign's outcome, then emits the campaign's terminal event (none when
// kind is empty) and checkpoints. The event follows the state change, so
// an OnEvent consumer that reads Status sees the campaign over.
func (c *Controller) endCampaign(kind, detail string, epoch int) {
	c.mu.Lock()
	c.phase = PhaseIdle
	c.cooldownUntil = time.Now().Add(c.cfg.Cooldown)
	c.driftStreak = 0
	c.mu.Unlock()
	if kind != "" {
		c.emit(kind, detail, epoch)
	}
	c.checkpoint("campaign-end")
}

// campaign runs drift-response end to end: refit (retried), shadow gate,
// promote (retried), watchdog. Caller holds campMu.
func (c *Controller) campaign() {
	sp := c.o.StartSpan("ctrl.campaign")
	defer sp.End()

	c.mu.Lock()
	shots := c.res.snapshot()
	nextEpoch := c.epoch + 1
	driftAt := c.driftAt
	c.mu.Unlock()
	sp.SetAttr("epoch", fmt.Sprintf("%d", nextEpoch))

	// Refit, under retry with jittered backoff and per-attempt timeout.
	c.emit(EventRefitStart, fmt.Sprintf("shots=%d classes=%d", len(shots.X), len(shots.ClassCounts())), nextEpoch)
	refitSp := sp.Child("ctrl.refit")
	refitStart := time.Now()
	var cand *Candidate
	err := retryDo(c.ctx, c.cfg.Retry, c.retryRng, func(ctx context.Context) error {
		if err := c.cfg.Faults.Fire(FaultSiteRefit); err != nil {
			return err
		}
		fresh, ferr := c.cfg.Refit(ctx, shots, nextEpoch)
		if ferr != nil {
			return ferr
		}
		if fresh == nil || fresh.Adapter == nil {
			return errors.New("ctrl: refit returned no adapter")
		}
		cand = fresh
		return nil
	}, func(n int, err error, wait time.Duration) {
		c.emit(EventRefitRetry, fmt.Sprintf("attempt=%d err=%v backoff=%s", n, err, wait), nextEpoch)
	})
	refitSp.End()
	if err != nil {
		sp.SetAttr("outcome", EventRefitFail)
		c.endCampaign(EventRefitFail, err.Error(), nextEpoch)
		return
	}
	c.o.Histogram(obs.MetricCtrlRefitSeconds, obs.PipelineBuckets).Observe(time.Since(refitStart).Seconds())
	if cand.ID == "" {
		cand.ID = fmt.Sprintf("ctrl-epoch%d", nextEpoch)
	}

	// Shadow gate against the live incumbent.
	c.mu.Lock()
	c.phase = PhaseGating
	c.mu.Unlock()
	gateSp := sp.Child("ctrl.gate")
	incumbent := c.cfg.Registry.Current()
	rep, err := shadowGate(cand, incumbent, c.cfg.Probe, c.cfg.NumClasses, c.cfg.MinWinMargin)
	gateSp.End()
	if !math.IsNaN(rep.CandidateScore) {
		c.o.Gauge(obs.MetricCtrlGateScore, "role", "candidate").Set(rep.CandidateScore)
	}
	if !math.IsNaN(rep.IncumbentScore) {
		c.o.Gauge(obs.MetricCtrlGateScore, "role", "incumbent").Set(rep.IncumbentScore)
	}
	if err != nil {
		sp.SetAttr("outcome", EventGateFail)
		c.endCampaign(EventGateFail, "gate error: "+err.Error(), nextEpoch)
		return
	}
	if !rep.Pass {
		sp.SetAttr("outcome", EventGateFail)
		c.endCampaign(EventGateFail, rep.Reason, nextEpoch)
		return
	}
	c.emit(EventGatePass, fmt.Sprintf("candidate=%.2f incumbent=%.2f margin=%.2f",
		rep.CandidateScore, rep.IncumbentScore, rep.Margin), nextEpoch)

	c.promoteAndWatch(sp, cand, incumbent, nextEpoch, driftAt)
}

// promoteAndWatch is the tail every campaign shares, the forced one
// included: carry the incumbent's classifier forward, promote, watch, and
// end the campaign. driftAt is zero for a forced promotion. sp may be nil
// (nil spans are no-ops). Returns the promote error, if any.
func (c *Controller) promoteAndWatch(sp *obs.Span, cand *Candidate, incumbent *serve.Bundle, nextEpoch int, driftAt time.Time) error {
	// The classifier is never retrained; when the candidate does not ship
	// its own, the incumbent's is carried forward into the promoted bundle
	// so the serving surface (predictions included) never narrows.
	if cand.Classifier == nil && incumbent != nil {
		cand.Classifier = incumbent.Classifier
	}

	// Promote: write the candidate bundle and hot-swap it in, retaining
	// the incumbent for rollback.
	promoteSp := sp.Child("ctrl.promote")
	prev, prevPath, err := c.promote(cand, nextEpoch, driftAt)
	promoteSp.End()
	if err != nil {
		sp.SetAttr("outcome", EventPromoteFail)
		detail := err.Error()
		if driftAt.IsZero() {
			detail = "forced: " + detail
		}
		c.endCampaign(EventPromoteFail, detail, nextEpoch)
		return err
	}

	// Watchdog: the promotion is provisional until it survives WatchFor.
	watchSp := sp.Child("ctrl.watch")
	outcome, detail := c.watch(prev, prevPath)
	watchSp.End()
	if outcome != "" {
		sp.SetAttr("outcome", outcome)
	}
	c.endCampaign(outcome, detail, nextEpoch)
	return nil
}

// bundlePath names the promoted bundle file for an epoch.
func (c *Controller) bundlePath(epoch int) string {
	ext := "ndbf"
	if c.cfg.BundleFormat == serve.FormatJSON {
		ext = "json"
	}
	return filepath.Join(c.cfg.BundleDir, fmt.Sprintf("bundle-epoch%06d.%s", epoch, ext))
}

// promote writes the candidate to its epoch-versioned file and installs it
// through Registry.LoadFile (breaker-guarded, singleflighted), under the
// retry policy. Returns the displaced bundle and its path for rollback.
func (c *Controller) promote(cand *Candidate, nextEpoch int, driftAt time.Time) (*serve.Bundle, string, error) {
	path := c.bundlePath(nextEpoch)
	prev := c.cfg.Registry.Current()
	c.mu.Lock()
	prevPath := c.incumbentPath
	c.mu.Unlock()
	err := retryDo(c.ctx, c.cfg.Retry, c.retryRng, func(ctx context.Context) error {
		if err := c.cfg.Faults.Fire(FaultSitePromote); err != nil {
			return err
		}
		if err := serve.WriteBundleFileFormat(path, cand.ID, cand.Adapter, cand.Classifier, c.cfg.BundleFormat); err != nil {
			return err
		}
		_, err := c.cfg.Registry.LoadFile(path)
		return err
	}, func(n int, err error, wait time.Duration) {
		c.emit(EventPromoteFail, fmt.Sprintf("attempt=%d err=%v backoff=%s (retrying)", n, err, wait), nextEpoch)
	})
	if err != nil {
		return nil, "", err
	}
	recovery := 0.0
	if !driftAt.IsZero() {
		recovery = time.Since(driftAt).Seconds()
	}
	c.mu.Lock()
	c.epoch = nextEpoch
	c.promotedPath = path
	c.phase = PhaseWatching
	if !driftAt.IsZero() {
		c.lastRecovery = recovery
	}
	c.mu.Unlock()
	c.o.Gauge(obs.MetricCtrlEpoch).Set(float64(nextEpoch))
	detail := fmt.Sprintf("bundle=%s path=%s (forced)", cand.ID, path)
	if !driftAt.IsZero() {
		c.o.Gauge(obs.MetricCtrlDriftToRecovery).Set(recovery)
		detail = fmt.Sprintf("bundle=%s path=%s recovery=%.3fs", cand.ID, path, recovery)
	}
	c.emit(EventPromote, detail, nextEpoch)
	c.checkpoint("promote")
	return prev, prevPath, nil
}

// watchBase is the serve-counter baseline captured at promotion.
type watchBase struct{ ok, degraded float64 }

func (c *Controller) serveCounts() watchBase {
	if c.o == nil || c.o.Registry == nil {
		return watchBase{}
	}
	ok, _ := c.o.Registry.Value(obs.MetricServeRequests, "outcome", "ok")
	deg, _ := c.o.Registry.Value(obs.MetricServeRequests, "outcome", "degraded")
	return watchBase{ok: ok, degraded: deg}
}

// unhealthy decides whether the promoted bundle is hurting serving: the
// /v1/adapt SLO burn rate (errors, timeouts, shed) or the degraded
// fraction since promotion (passthrough responses burn no budget but mean
// the adapter is not adapting). Both need MinWatchRequests of evidence.
func (c *Controller) unhealthy(base watchBase) (bool, string) {
	if c.cfg.SLO != nil {
		st := c.cfg.SLO.Tracker(serve.EndpointAdapt).Stats(c.cfg.WatchWindow)
		if st.Requests >= uint64(c.cfg.MinWatchRequests) && st.BurnRate >= rollbackBurn {
			return true, fmt.Sprintf("burn-rate %.1f >= %.1f over %s (%d reqs, %d errors)",
				st.BurnRate, rollbackBurn, c.cfg.WatchWindow, st.Requests, st.Errors)
		}
	}
	cur := c.serveCounts()
	okD, degD := cur.ok-base.ok, cur.degraded-base.degraded
	if total := okD + degD; total >= float64(c.cfg.MinWatchRequests) &&
		degD/total >= rollbackDegradeFrac {
		return true, fmt.Sprintf("degraded fraction %.2f >= %.2f since promote (%d reqs)",
			degD/total, rollbackDegradeFrac, int(total))
	}
	return false, ""
}

// watch polls serving health until the promotion earns trust (WatchFor
// elapsed → watch-clear, the incumbent path advances, and the detector
// rebaselines) or proves harmful (→ rollback). It returns the terminal
// event and its detail for endCampaign to emit; the kind is empty when the
// controller closes first.
func (c *Controller) watch(prev *serve.Bundle, prevPath string) (kind, detail string) {
	base := c.serveCounts()
	deadline := time.Now().Add(c.cfg.WatchFor)
	for {
		select {
		case <-c.closed:
			return "", ""
		case <-time.After(c.cfg.WatchEvery):
		}
		if bad, why := c.unhealthy(base); bad {
			return EventRollback, c.rollback(prev, prevPath, why)
		}
		if time.Now().After(deadline) {
			c.mu.Lock()
			c.incumbentPath = c.promotedPath
			c.mu.Unlock()
			c.rebaseline()
			return EventWatchClear, fmt.Sprintf("healthy for %s", c.cfg.WatchFor)
		}
	}
}

// rollback swaps the retained previous bundle back in and returns the
// rollback event's detail. The chaos site can delay it but never deny it:
// if retries exhaust, the swap happens anyway (Registry.Swap itself cannot
// fail).
func (c *Controller) rollback(prev *serve.Bundle, prevPath, why string) string {
	err := retryDo(c.ctx, c.cfg.Retry, c.retryRng, func(ctx context.Context) error {
		if err := c.cfg.Faults.Fire(FaultSiteRollback); err != nil {
			return err
		}
		c.cfg.Registry.Swap(prev)
		return nil
	}, nil)
	detail := why
	if err != nil {
		c.cfg.Registry.Swap(prev) // forced: rollback is not deniable
		detail += " (forced after retry exhaustion: " + err.Error() + ")"
	}
	c.mu.Lock()
	c.promotedPath = prevPath
	if prevPath != "" {
		c.incumbentPath = prevPath
	}
	c.mu.Unlock()
	return detail
}

// rebaseline refits the detector's reference on the current window after a
// trusted promotion, so the monitor measures drift since the last
// adaptation rather than re-alarming forever on the same shift.
func (c *Controller) rebaseline() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.winCount < len(c.window) || c.winCount < 10 {
		return
	}
	if err := c.cfg.Detector.Fit(c.window); err != nil {
		c.o.FlightRecord(obs.FlightKindCtrl, "rebaseline-error", "", err.Error())
		return
	}
	c.driftStreak = 0
	c.sinceCheck = 0
	c.o.FlightRecord(obs.FlightKindCtrl, "rebaseline", "", fmt.Sprintf("rows=%d", c.winCount))
}

// ForcePromote installs a candidate without drift trigger or shadow gate —
// the operator override — but still under the promote retry/chaos
// machinery, and still watched: an unhealthy forced promotion rolls back
// like any other. Blocks through the watch phase; returns the promote
// error, if any. Fails if a campaign is already in flight.
func (c *Controller) ForcePromote(cand *Candidate) error {
	if cand == nil || cand.Adapter == nil {
		return errors.New("ctrl: ForcePromote needs a candidate with an adapter")
	}
	if !c.campMu.TryLock() {
		return errors.New("ctrl: a campaign is already in flight")
	}
	defer c.campMu.Unlock()
	c.mu.Lock()
	if c.phase != PhaseIdle {
		phase := c.phase
		c.mu.Unlock()
		return fmt.Errorf("ctrl: cannot force-promote during %s", phase)
	}
	c.phase = PhaseGating
	nextEpoch := c.epoch + 1
	c.mu.Unlock()
	if cand.ID == "" {
		cand.ID = fmt.Sprintf("forced-epoch%d", nextEpoch)
	}
	return c.promoteAndWatch(nil, cand, c.cfg.Registry.Current(), nextEpoch, time.Time{})
}

// checkpoint atomically persists the controller's durable state. reason
// names the call site ("ingest", "promote", "campaign-end", "close"); a
// failed write records it in the checkpoint-error flight event.
func (c *Controller) checkpoint(reason string) {
	if c.cfg.CheckpointPath == "" {
		return
	}
	c.mu.Lock()
	st := &checkpointState{
		epoch:           c.epoch,
		incumbentPath:   c.incumbentPath,
		promotedPath:    c.promotedPath,
		lastRecoverySec: c.lastRecovery,
	}
	if !c.cooldownUntil.IsZero() {
		st.cooldownUntil = c.cooldownUntil.UnixNano()
	}
	for _, label := range c.res.labels() {
		cr := c.res.byLabel[label]
		cls := classReservoir{label: cr.label, seen: cr.seen, rows: make([][]float64, len(cr.rows))}
		for i, row := range cr.rows {
			cls.rows[i] = append([]float64(nil), row...)
		}
		st.classes = append(st.classes, cls)
	}
	c.mu.Unlock()
	blob := encodeCheckpoint(st)

	c.ckptMu.Lock()
	err := writeCheckpointFile(c.cfg.CheckpointPath, blob)
	c.ckptMu.Unlock()
	if err != nil {
		c.o.FlightRecord(obs.FlightKindCtrl, "checkpoint-error", "", reason+": "+err.Error())
		return
	}
	c.o.Counter(obs.MetricCtrlCheckpoints).Inc()
}

// StatusReport is the operator view of the controller, embedded in
// /v1/status.
type StatusReport struct {
	Phase               string  `json:"phase"`
	Epoch               int     `json:"epoch"`
	IngestedRows        int64   `json:"ingested_rows"`
	WindowFill          int     `json:"window_fill"`
	WindowSize          int     `json:"window_size"`
	DriftStreak         int     `json:"drift_streak"`
	ReservoirRows       int     `json:"reservoir_rows"`
	ReservoirClasses    int     `json:"reservoir_classes"`
	CooldownRemaining   string  `json:"cooldown_remaining,omitempty"`
	IncumbentPath       string  `json:"incumbent_path,omitempty"`
	PromotedPath        string  `json:"promoted_path,omitempty"`
	LastRecoverySeconds float64 `json:"last_recovery_seconds,omitempty"`
	Restored            bool    `json:"restored_from_checkpoint,omitempty"`
}

// Status snapshots the controller state.
func (c *Controller) Status() StatusReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := StatusReport{
		Phase:               c.phase,
		Epoch:               c.epoch,
		IngestedRows:        c.ingested,
		WindowFill:          c.winCount,
		WindowSize:          len(c.window),
		DriftStreak:         c.driftStreak,
		ReservoirRows:       c.res.totalRows(),
		ReservoirClasses:    len(c.res.byLabel),
		IncumbentPath:       c.incumbentPath,
		PromotedPath:        c.promotedPath,
		LastRecoverySeconds: c.lastRecovery,
		Restored:            c.restored,
	}
	if rem := time.Until(c.cooldownUntil); rem > 0 {
		st.CooldownRemaining = rem.Round(time.Millisecond).String()
	}
	return st
}
