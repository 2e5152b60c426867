package ctrl

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"netdrift/internal/core"
	"netdrift/internal/dataset"
	"netdrift/internal/fault"
	"netdrift/internal/models"
	"netdrift/internal/monitor"
	"netdrift/internal/obs"
	"netdrift/internal/serve"
)

// toyDrift mirrors the drifted toy problem used across the repo's tests:
// f2 is the variant aggregate, mean-shifted in the target domain.
func toyDrift(n int, target bool, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % 2
		cs := float64(2*c - 1)
		f0 := cs + 0.5*rng.NormFloat64()
		f1 := cs*0.8 + 0.5*rng.NormFloat64()
		f2 := f0 + f1 + cs + 0.1*rng.NormFloat64()
		if target {
			f2 += 4
		}
		f3 := rng.NormFloat64()
		x[i] = []float64{f0, f1, f2, f3}
		y[i] = c
	}
	return &dataset.Dataset{X: x, Y: y}
}

// Shared fitted fixture: a stale incumbent (support drawn from the source
// itself, so it never learned the drift) and a good candidate (support
// from the drifted target). The classifier is trained once, through the
// incumbent, and never retrained — the paper's protocol.
var fixOnce sync.Once
var fix struct {
	source  *dataset.Dataset
	probe   *dataset.Dataset
	staleAd *core.Adapter
	goodAd  *core.Adapter
	clf     *models.MLPClassifier
}

func fitAdapter(t testing.TB, src, support *dataset.Dataset, seed int64) *core.Adapter {
	t.Helper()
	ad := core.NewAdapter(core.AdapterConfig{
		Mode:  core.ModeFSRecon,
		Recon: core.ReconGAN,
		GAN:   core.GANConfig{Epochs: 6},
		Seed:  seed,
	})
	if err := ad.Fit(src, support); err != nil {
		t.Fatal(err)
	}
	return ad
}

func fixture(t testing.TB) {
	t.Helper()
	fixOnce.Do(func() {
		fix.source = toyDrift(400, false, 11)
		fix.probe = toyDrift(120, true, 13)
		fix.staleAd = fitAdapter(t, fix.source, toyDrift(20, false, 17), 1)
		fix.goodAd = fitAdapter(t, fix.source, toyDrift(20, true, 19), 2)
		train, err := fix.staleAd.TrainingData(fix.source)
		if err != nil {
			t.Fatal(err)
		}
		fix.clf = models.NewMLPClassifier(models.Options{Seed: 3, Epochs: 3})
		if err := fix.clf.Fit(train.X, train.Y, 2); err != nil {
			t.Fatal(err)
		}
	})
}

func incumbentBundle() *serve.Bundle {
	return &serve.Bundle{ID: "incumbent", Adapter: fix.staleAd, Classifier: fix.clf}
}

// harness wires a controller over a fresh registry with fast test knobs.
type harness struct {
	o      *obs.Observer
	reg    *serve.Registry
	events chan Event
	ctrl   *Controller
}

func newHarness(t testing.TB, dir string, mutate func(*Config)) *harness {
	t.Helper()
	fixture(t)
	h := &harness{o: obs.New(), events: make(chan Event, 1024)}
	h.reg = serve.NewRegistry(h.o)
	h.reg.Swap(incumbentBundle())
	det := monitor.New(monitor.Config{})
	if err := det.Fit(fix.source.X); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Detector:   det,
		Registry:   h.reg,
		Probe:      fix.probe,
		NumClasses: 2,
		Refit: func(ctx context.Context, shots *dataset.Dataset, epoch int) (*Candidate, error) {
			return &Candidate{ID: fmt.Sprintf("cand%d", epoch), Adapter: fix.goodAd}, nil
		},
		WindowSize:       24,
		CheckEvery:       12,
		DriftUp:          2,
		Cooldown:         100 * time.Millisecond,
		ShotsPerClass:    10,
		MinShotsPerClass: 2,
		Retry:            RetryConfig{MaxAttempts: 3, BaseBackoff: 2 * time.Millisecond, MaxBackoff: 10 * time.Millisecond},
		BundleDir:        dir,
		CheckpointPath:   filepath.Join(dir, "ctrl.ckpt"),
		WatchFor:         60 * time.Millisecond,
		WatchEvery:       10 * time.Millisecond,
		WatchWindow:      10 * time.Second,
		MinWatchRequests: 1 << 30, // watchdog effectively off unless a test arms it
		Seed:             7,
		Obs:              h.o,
		OnEvent:          func(ev Event) { h.events <- ev },
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.ctrl = c
	return h
}

// feedDrift pushes labelled drifted batches through IngestRows.
func (h *harness) feedDrift(t testing.TB, batches int, seed int64) {
	t.Helper()
	rows := toyDrift(12*batches, true, seed)
	for i := 0; i < batches; i++ {
		batch := rows.X[i*12 : (i+1)*12]
		labels := rows.Y[i*12 : (i+1)*12]
		if _, err := h.ctrl.IngestRows(batch, labels); err != nil {
			t.Fatal(err)
		}
	}
}

// waitEvent consumes events until kind arrives (fatal after timeout).
func (h *harness) waitEvent(t testing.TB, kind string) Event {
	t.Helper()
	deadline := time.After(30 * time.Second)
	for {
		select {
		case ev := <-h.events:
			if ev.Kind == kind {
				return ev
			}
		case <-deadline:
			t.Fatalf("timed out waiting for event %q", kind)
		}
	}
}

// expectNoEvent asserts no event of the given kinds arrives within d.
func (h *harness) expectNoEvent(t testing.TB, d time.Duration, kinds ...string) {
	t.Helper()
	deadline := time.After(d)
	for {
		select {
		case ev := <-h.events:
			for _, k := range kinds {
				if ev.Kind == k {
					t.Fatalf("unexpected event %q (%s)", ev.Kind, ev.Detail)
				}
			}
		case <-deadline:
			return
		}
	}
}

func TestCampaignPromotesOnDrift(t *testing.T) {
	h := newHarness(t, t.TempDir(), nil)
	h.ctrl.Start()
	defer h.ctrl.Close()

	h.feedDrift(t, 8, 101)
	h.waitEvent(t, EventDriftDetected)
	h.waitEvent(t, EventRefitStart)
	ev := h.waitEvent(t, EventGatePass)
	if ev.Epoch != 1 {
		t.Fatalf("gate-pass epoch = %d, want 1", ev.Epoch)
	}
	h.waitEvent(t, EventPromote)
	if got := h.reg.Current().ID; got != "cand1" {
		t.Fatalf("current bundle = %q, want cand1", got)
	}
	h.waitEvent(t, EventWatchClear)

	if v, ok := h.o.Registry.Value(obs.MetricCtrlDriftToRecovery); !ok || v <= 0 {
		t.Fatalf("drift-to-recovery gauge = %v ok=%v, want > 0", v, ok)
	}
	st := h.ctrl.Status()
	if st.Epoch != 1 || st.Phase != PhaseIdle {
		t.Fatalf("status = %+v, want epoch 1 idle", st)
	}
	if st.IncumbentPath == "" || st.IncumbentPath != st.PromotedPath {
		t.Fatalf("watch-clear should advance incumbent path: %+v", st)
	}
}

// TestIngestOneBatchRunsEveryCheck ingests feedDrift's rows in one call.
// The batch crosses several CheckEvery periods, so it must run a check for
// each of them and start a campaign on the DriftUp'th drifted verdict, as
// the same rows fed in CheckEvery-sized batches do.
func TestIngestOneBatchRunsEveryCheck(t *testing.T) {
	h := newHarness(t, t.TempDir(), nil)
	h.ctrl.Start()
	defer h.ctrl.Close()

	rows := toyDrift(12*8, true, 101)
	sum, err := h.ctrl.IngestRows(rows.X, rows.Y)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Phase != PhaseRefitting {
		t.Fatalf("phase after one %d-row batch = %q (drift streak %d), want %q",
			len(rows.X), sum.Phase, sum.DriftStreak, PhaseRefitting)
	}
	h.waitEvent(t, EventDriftDetected)
	h.waitEvent(t, EventRefitStart)
}

func TestRefitFailureRetriesThenCoolsDown(t *testing.T) {
	inj := fault.New(5)
	inj.Set(FaultSiteRefit, fault.Spec{ErrRate: 1})
	h := newHarness(t, t.TempDir(), func(c *Config) { c.Faults = inj })
	h.ctrl.Start()
	defer h.ctrl.Close()

	h.feedDrift(t, 8, 202)
	h.waitEvent(t, EventDriftDetected)
	h.waitEvent(t, EventRefitRetry)
	h.waitEvent(t, EventRefitRetry) // MaxAttempts 3 => exactly 2 retries
	h.waitEvent(t, EventRefitFail)
	if got := h.reg.Current().ID; got != "incumbent" {
		t.Fatalf("failed refit must not disturb serving; current = %q", got)
	}
	if st := h.ctrl.Status(); st.Phase != PhaseIdle || st.CooldownRemaining == "" {
		t.Fatalf("after refit-fail want idle + cooldown, got %+v", st)
	}
	if st := inj.Stats(FaultSiteRefit); st.Errs != 3 {
		t.Fatalf("refit chaos site fired %d errs, want 3 (one per attempt)", st.Errs)
	}
}

func TestGateRejectsNonImprovingCandidate(t *testing.T) {
	h := newHarness(t, t.TempDir(), func(c *Config) {
		// The "poisoned" candidate: same stale geometry as the incumbent,
		// so it cannot clear the margin.
		c.Refit = func(ctx context.Context, shots *dataset.Dataset, epoch int) (*Candidate, error) {
			return &Candidate{ID: "poison", Adapter: fix.staleAd}, nil
		}
	})
	h.ctrl.Start()
	defer h.ctrl.Close()

	h.feedDrift(t, 8, 303)
	h.waitEvent(t, EventDriftDetected)
	ev := h.waitEvent(t, EventGateFail)
	if ev.Detail == "" {
		t.Fatal("gate-fail event should carry scores in Detail")
	}
	if got := h.reg.Current().ID; got != "incumbent" {
		t.Fatalf("rejected candidate must not serve; current = %q", got)
	}
	if st := h.ctrl.Status(); st.Epoch != 0 {
		t.Fatalf("rejected candidate must not advance the epoch: %+v", st)
	}
}

func TestWatchdogRollsBackOnBurn(t *testing.T) {
	slo := obs.NewSLOSet(obs.SLO{}, time.Minute, 0, nil)
	h := newHarness(t, t.TempDir(), func(c *Config) {
		c.SLO = slo
		c.MinWatchRequests = 5
		c.WatchFor = 5 * time.Second // long: rollback must beat the clear
	})
	h.ctrl.Start()
	defer h.ctrl.Close()

	h.feedDrift(t, 8, 404)
	h.waitEvent(t, EventPromote)
	// The promoted bundle "hurts" serving: burn the /v1/adapt error budget.
	for i := 0; i < 50; i++ {
		slo.Observe(serve.EndpointAdapt, 0.001, true)
	}
	h.waitEvent(t, EventRollback)
	if got := h.reg.Current().ID; got != "incumbent" {
		t.Fatalf("rollback must restore the incumbent; current = %q", got)
	}
	// The rollback event is emitted after the campaign returned to idle.
	if st := h.ctrl.Status(); st.Phase != PhaseIdle || st.Epoch != 1 || st.CooldownRemaining == "" {
		t.Fatalf("post-rollback status = %+v, want epoch 1 idle + cooldown", st)
	}
}

func TestForcePromoteAndPhaseGuard(t *testing.T) {
	h := newHarness(t, t.TempDir(), func(c *Config) { c.WatchFor = 30 * time.Millisecond })
	h.ctrl.Start()
	defer h.ctrl.Close()

	done := make(chan error, 1)
	go func() {
		done <- h.ctrl.ForcePromote(&Candidate{ID: "forced", Adapter: fix.goodAd})
	}()
	h.waitEvent(t, EventPromote)
	if got := h.reg.Current().ID; got != "forced" {
		t.Fatalf("current = %q, want forced", got)
	}
	// While the forced promotion is under watch, a second force is refused.
	if err := h.ctrl.ForcePromote(&Candidate{ID: "second", Adapter: fix.goodAd}); err == nil {
		t.Fatal("concurrent ForcePromote should be refused")
	}
	h.waitEvent(t, EventWatchClear)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointResumeDoesNotRefit(t *testing.T) {
	dir := t.TempDir()
	h := newHarness(t, dir, nil)
	h.ctrl.Start()
	h.feedDrift(t, 8, 505)
	h.waitEvent(t, EventWatchClear)
	wantReservoir := h.ctrl.Status().ReservoirRows
	h.ctrl.Close()

	// A "restarted" controller over the same checkpoint: fresh registry
	// (still holding the boot bundle), fresh detector.
	h2 := newHarness(t, dir, nil)
	st := h2.ctrl.Status()
	if !st.Restored || st.Epoch != 1 {
		t.Fatalf("restored status = %+v, want restored epoch 1", st)
	}
	if st.ReservoirRows != wantReservoir {
		t.Fatalf("reservoir rows = %d, want %d carried across the crash", st.ReservoirRows, wantReservoir)
	}
	h2.ctrl.Start()
	defer h2.ctrl.Close()
	ev := h2.waitEvent(t, EventResume)
	if ev.Epoch != 1 {
		t.Fatalf("resume epoch = %d, want 1", ev.Epoch)
	}
	// The promoted bundle is reinstalled from its epoch file...
	if got := h2.reg.Current().ID; got != "cand1" {
		t.Fatalf("resume should reinstall the promoted bundle; current = %q", got)
	}
	// ...and no refit is re-triggered by the restart itself.
	h2.expectNoEvent(t, 300*time.Millisecond, EventDriftDetected, EventRefitStart)
}

func TestIngestRejectsMalformedRows(t *testing.T) {
	h := newHarness(t, t.TempDir(), nil)
	defer h.ctrl.Close()

	cases := map[string]struct {
		rows   [][]float64
		labels []int
	}{
		"empty":        {nil, nil},
		"narrow":       {[][]float64{{1, 2}}, nil},
		"nan":          {[][]float64{{1, 2, 0.0 / zero(), 4}}, nil},
		"labelLenMism": {[][]float64{{1, 2, 3, 4}}, []int{0, 1}},
	}
	for name, tc := range cases {
		if _, err := h.ctrl.IngestRows(tc.rows, tc.labels); !errors.Is(err, serve.ErrIngestRejected) {
			t.Errorf("%s: err = %v, want ErrIngestRejected", name, err)
		}
	}
	if st := h.ctrl.Status(); st.IngestedRows != 0 {
		t.Fatalf("rejected batches must not count: %+v", st)
	}
}

// zero defeats the compiler's divide-by-zero constant check.
func zero() float64 { return 0 }
