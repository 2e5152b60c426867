package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"netdrift/internal/core"
	"netdrift/internal/ctrl"
	"netdrift/internal/dataset"
	"netdrift/internal/experiments"
	"netdrift/internal/fault"
	"netdrift/internal/models"
	"netdrift/internal/monitor"
	"netdrift/internal/serve"
)

// runCtrlCheck is the closed-loop acceptance test behind `driftserve
// -ctrlcheck`: a deterministic drift storm against the full controller
// stack, end to end over HTTP. Five phases, each gating the verdict:
//
//	A  clean loop: drifted telemetry through POST /v1/ingest must detect,
//	   refit (real FS+GAN), pass the shadow gate, hot-swap, and survive the
//	   watchdog — and the drift-to-recovery gauge must appear on /metrics.
//	B  refit chaos: with ctrl.refit erroring at 100%, a fresh drift must
//	   retry with backoff and land at refit-fail without touching serving.
//	C  poisoned candidate: a refit that returns the stale pass-through
//	   adapter must be rejected by the gate, not promoted.
//	D  watchdog: a force-promoted broken bundle (wrong feature width, so
//	   every /v1/adapt degrades to passthrough) must be rolled back under
//	   live traffic, and the pre-promotion bundle's responses must come
//	   back bit-identical.
//	E  crash resume: a controller rebuilt from the checkpoint must restore
//	   its epoch, reinstall the promoted bundle, and not re-trigger a refit.
//
// The verdict line is machine-greppable:
//
//	ctrlcheck: PASS phases=A,B,C,D,E epoch=2 recovery=1.234s
func runCtrlCheck(out io.Writer, cfg config) error {
	// Acceptance wants tight loops; honor explicit flags, shrink defaults.
	if cfg.BreakerBackoff == 100*time.Millisecond {
		cfg.BreakerBackoff = 2 * time.Millisecond
	}
	if cfg.BreakerMaxBackoff == 30*time.Second {
		cfg.BreakerMaxBackoff = 20 * time.Millisecond
	}
	o, reg, co, srv, _, err := buildStack(cfg)
	if err != nil {
		return err
	}
	defer co.Close()

	pair, err := experiments.MakePair(cfg.Dataset, cfg.Scale, cfg.Seed)
	if err != nil {
		return err
	}
	work, err := os.MkdirTemp("", "ctrlcheck")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	// The stale incumbent: support drawn from the source itself, so the
	// adapter never learned the drift (pass-through scaling), with the
	// downstream classifier that is never retrained from here on.
	stale, clf, err := fitStaleIncumbent(pair, cfg.Seed)
	if err != nil {
		return err
	}
	incPath := work + "/bundle-epoch000000.ndbf"
	if err := serve.WriteBundleFileFormat(incPath, "ctrlcheck-incumbent", stale, clf, serve.FormatBinary); err != nil {
		return err
	}
	if _, err := reg.LoadFile(incPath); err != nil {
		return err
	}

	det := monitor.New(monitor.Config{})
	if err := det.Fit(pair.Source.X); err != nil {
		return err
	}
	probe := subset(pair.TargetTest, 160)

	// The refit is the real thing — the paper's FS+GAN fitted on the
	// reservoir shots — except when the poison switch is thrown, which
	// returns the stale adapter (a candidate the gate must reject).
	var poison atomic.Bool
	refit := func(ctx context.Context, shots *dataset.Dataset, epoch int) (*ctrl.Candidate, error) {
		if poison.Load() {
			return &ctrl.Candidate{ID: fmt.Sprintf("poison-epoch%d", epoch), Adapter: stale}, nil
		}
		ad := core.NewAdapter(core.AdapterConfig{
			Mode:  core.ModeFSRecon,
			Recon: core.ReconGAN,
			GAN:   core.GANConfig{Epochs: cfg.Scale.GANEpochs},
			Seed:  cfg.Seed + int64(epoch),
		})
		if err := ad.Fit(pair.Source, shots); err != nil {
			return nil, err
		}
		return &ctrl.Candidate{ID: fmt.Sprintf("refit-epoch%d", epoch), Adapter: ad}, nil
	}

	cinj := fault.New(cfg.Seed)
	events := make(chan ctrl.Event, 4096)
	ctrlCfg := ctrl.Config{
		Detector: det, Registry: reg, Refit: refit,
		Probe: probe, NumClasses: pair.NumClasses,
		WindowSize: 32, CheckEvery: 16, DriftUp: 2,
		Cooldown:      150 * time.Millisecond,
		ShotsPerClass: cfg.Shots, MinShotsPerClass: 2,
		Retry:     ctrl.RetryConfig{MaxAttempts: 3, BaseBackoff: 5 * time.Millisecond, MaxBackoff: 40 * time.Millisecond},
		BundleDir: work, BundleFormat: serve.FormatBinary,
		InitialBundlePath: incPath,
		SLO:               srv.SLOSet(),
		WatchFor:          1200 * time.Millisecond, WatchEvery: 25 * time.Millisecond,
		WatchWindow: 10 * time.Second, MinWatchRequests: 10,
		CheckpointPath: work + "/ctrl.ckpt",
		Seed:           cfg.Seed, Faults: cinj, Obs: o,
		OnEvent: func(ev ctrl.Event) {
			select {
			case events <- ev:
			default:
			}
		},
	}
	c, err := ctrl.New(ctrlCfg)
	if err != nil {
		return err
	}
	srv.SetIngest(c)
	srv.SetCtrlStatus(func() any { return c.Status() })
	c.Start()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv}
	go func() { _ = hs.Serve(ln) }()
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	waitEvent := func(kind string, timeout time.Duration) (ctrl.Event, error) {
		deadline := time.After(timeout)
		for {
			select {
			case ev := <-events:
				fmt.Fprintf(out, "  event %-14s epoch=%d %s\n", ev.Kind, ev.Epoch, ev.Detail)
				if ev.Kind == kind {
					return ev, nil
				}
				// A campaign that resolves the wrong way will never produce
				// the awaited kind; fail fast with the actual outcome.
				for _, term := range []string{ctrl.EventRefitFail, ctrl.EventGateFail, ctrl.EventPromoteFail, ctrl.EventRollback, ctrl.EventWatchClear} {
					if ev.Kind == term && kind != term {
						return ev, fmt.Errorf("waiting for %q, campaign ended with %q (%s)", kind, ev.Kind, ev.Detail)
					}
				}
			case <-deadline:
				return ctrl.Event{}, fmt.Errorf("timed out waiting for event %q", kind)
			}
		}
	}
	ingest := func(rows [][]float64, labels []int) error {
		body, _ := json.Marshal(serve.IngestRequest{Rows: rows, Labels: labels})
		res, err := http.Post(base+serve.EndpointIngest, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer res.Body.Close()
		if res.StatusCode != http.StatusOK {
			blob, _ := io.ReadAll(res.Body)
			return fmt.Errorf("ingest: %d %s", res.StatusCode, blob)
		}
		return nil
	}
	// feed streams ds through /v1/ingest in batches until stop() says done
	// (or the batches run out — that is the error case).
	feed := func(ds *dataset.Dataset, transform func([]float64) []float64, stop func() bool) error {
		const batch = 16
		for at := 0; at+batch <= len(ds.X); at += batch {
			if stop() {
				return nil
			}
			rows := make([][]float64, batch)
			for i := range rows {
				row := append([]float64(nil), ds.X[at+i]...)
				if transform != nil {
					row = transform(row)
				}
				rows[i] = row
			}
			if err := ingest(rows, ds.Y[at:at+batch]); err != nil {
				return err
			}
			time.Sleep(2 * time.Millisecond)
		}
		if stop() {
			return nil
		}
		return fmt.Errorf("telemetry exhausted (%d rows) before the controller reacted", len(ds.X))
	}
	// A campaign can resolve faster than the feed loop polls, so "reacted"
	// means either a campaign in flight or one just finished (cooldown
	// re-armed) — each phase sleeps the previous cooldown off first.
	campaignStarted := func() bool {
		st := c.Status()
		return st.Phase != ctrl.PhaseIdle || st.CooldownRemaining != ""
	}

	var phases []string
	fail := func(phase string, err error) error {
		fmt.Fprintf(out, "ctrlcheck: FAIL phase=%s: %v\n", phase, err)
		if o.Flight != nil && cfg.FlightSnap != "" {
			if f, ferr := os.Create(cfg.FlightSnap); ferr == nil {
				if o.Flight.WriteSnapshot(f, "ctrlcheck-fail") == nil {
					fmt.Fprintf(out, "  flight recorder dumped to %s\n", cfg.FlightSnap)
				}
				f.Close()
			}
		}
		return fmt.Errorf("ctrlcheck failed in phase %s: %w", phase, err)
	}

	// --- Phase A: clean closed loop over HTTP. ---
	fmt.Fprintf(out, "ctrlcheck: phase A — drift storm (dataset %s, scale %s, %d shots/class)\n",
		cfg.Dataset, cfg.ScaleName, cfg.Shots)
	if err := feed(pair.TargetTrain, nil, campaignStarted); err != nil {
		return fail("A", err)
	}
	if _, err := waitEvent(ctrl.EventGatePass, 2*time.Minute); err != nil {
		return fail("A", err)
	}
	if _, err := waitEvent(ctrl.EventPromote, 30*time.Second); err != nil {
		return fail("A", err)
	}
	if got := reg.Current().ID; !strings.HasPrefix(got, "refit-epoch") {
		return fail("A", fmt.Errorf("current bundle = %q, want the refit candidate", got))
	}
	if _, err := waitEvent(ctrl.EventWatchClear, 30*time.Second); err != nil {
		return fail("A", err)
	}
	recovery := c.Status().LastRecoverySeconds
	metricLine, err := scrapeMetric(base, "netdrift_ctrl_drift_to_recovery_seconds")
	if err != nil {
		return fail("A", err)
	}
	fmt.Fprintf(out, "  %s\n", metricLine)
	phases = append(phases, "A")

	// --- Phase B: refit chaos — retries, backoff, fail-closed. ---
	fmt.Fprintln(out, "ctrlcheck: phase B — refit erroring at 100%, campaign must fail closed")
	cinj.Set(ctrl.FaultSiteRefit, fault.Spec{ErrRate: 1})
	time.Sleep(300 * time.Millisecond) // clear phase A's cooldown
	served := reg.Current().ID
	// Phase A rebaselined the detector on drifted telemetry, so a fresh,
	// different shift is needed: a deterministic affine warp.
	warp := func(row []float64) []float64 {
		for i := range row {
			row[i] = row[i]*1.5 + 3
		}
		return row
	}
	if err := feed(pair.TargetTrain, warp, campaignStarted); err != nil {
		return fail("B", err)
	}
	if _, err := waitEvent(ctrl.EventRefitRetry, time.Minute); err != nil {
		return fail("B", err)
	}
	if _, err := waitEvent(ctrl.EventRefitFail, time.Minute); err != nil {
		return fail("B", err)
	}
	if got := reg.Current().ID; got != served {
		return fail("B", fmt.Errorf("failed refit disturbed serving: %q -> %q", served, got))
	}
	cinj.Clear()
	phases = append(phases, "B")

	// --- Phase C: poisoned candidate — the gate must reject it. ---
	fmt.Fprintln(out, "ctrlcheck: phase C — poisoned refit candidate, gate must reject")
	poison.Store(true)
	time.Sleep(300 * time.Millisecond)
	if err := feed(pair.TargetTrain, warp, campaignStarted); err != nil {
		return fail("C", err)
	}
	if _, err := waitEvent(ctrl.EventGateFail, 2*time.Minute); err != nil {
		return fail("C", err)
	}
	if got := reg.Current().ID; got != served {
		return fail("C", fmt.Errorf("rejected candidate reached serving: %q -> %q", served, got))
	}
	poison.Store(false)
	phases = append(phases, "C")

	// --- Phase D: watchdog rollback under live traffic. ---
	// The broken bundle is fitted on a feature-narrowed source, so every
	// full-width /v1/adapt degrades to passthrough — visible to the
	// watchdog as the degraded fraction, invisible to the SLO error budget.
	fmt.Fprintln(out, "ctrlcheck: phase D — force-promote a broken bundle, watchdog must roll back")
	time.Sleep(300 * time.Millisecond)
	goldenBundle := reg.Current()
	goldenRows, probeBody, err := goldenAdapt(goldenBundle, pair.TargetTest.X[:cfg.RowsPerReq])
	if err != nil {
		return fail("D", err)
	}
	broken, err := fitBrokenAdapter(pair, cfg.Seed)
	if err != nil {
		return fail("D", err)
	}
	forceDone := make(chan error, 1)
	go func() {
		forceDone <- c.ForcePromote(&ctrl.Candidate{ID: "ctrlcheck-broken", Adapter: broken})
	}()
	if _, err := waitEvent(ctrl.EventPromote, 30*time.Second); err != nil {
		return fail("D", err)
	}
	trafficStop := make(chan struct{})
	go func() {
		for {
			select {
			case <-trafficStop:
				return
			default:
			}
			res, err := http.Post(base+serve.EndpointAdapt, "application/json", bytes.NewReader(probeBody))
			if err == nil {
				io.Copy(io.Discard, res.Body)
				res.Body.Close()
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	_, rollErr := waitEvent(ctrl.EventRollback, time.Minute)
	close(trafficStop)
	if rollErr != nil {
		return fail("D", rollErr)
	}
	if err := <-forceDone; err != nil {
		return fail("D", fmt.Errorf("ForcePromote returned %w", err))
	}
	// Golden-bit restoration: the pre-promotion bundle must answer again,
	// bit for bit.
	restored := false
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		rows, bid, err := postAdaptRows(base, probeBody)
		if err == nil && bid == goldenBundle.ID && sameFloatRows(rows, goldenRows) {
			restored = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !restored {
		return fail("D", fmt.Errorf("bundle %q responses not restored bit-identical after rollback", goldenBundle.ID))
	}
	phases = append(phases, "D")

	// --- Phase E: crash + resume from checkpoint. ---
	fmt.Fprintln(out, "ctrlcheck: phase E — crash the controller, resume from checkpoint")
	epochBefore := c.Status().Epoch
	c.Close()
	reg.Swap(nil) // simulate a cold process: nothing installed
	events2 := make(chan ctrl.Event, 4096)
	ctrlCfg.OnEvent = func(ev ctrl.Event) {
		select {
		case events2 <- ev:
		default:
		}
	}
	det2 := monitor.New(monitor.Config{})
	if err := det2.Fit(pair.Source.X); err != nil {
		return fail("E", err)
	}
	ctrlCfg.Detector = det2
	c2, err := ctrl.New(ctrlCfg)
	if err != nil {
		return fail("E", err)
	}
	defer c2.Close()
	st := c2.Status()
	if !st.Restored || st.Epoch != epochBefore {
		return fail("E", fmt.Errorf("restored status = %+v, want restored epoch %d", st, epochBefore))
	}
	events = events2
	c2.Start()
	if _, err := waitEvent(ctrl.EventResume, 30*time.Second); err != nil {
		return fail("E", err)
	}
	if cur := reg.Current(); cur == nil || cur.ID != goldenBundle.ID {
		return fail("E", fmt.Errorf("resume did not reinstall %q", goldenBundle.ID))
	}
	// The restart itself must not re-trigger the refit it already shipped.
	select {
	case ev := <-events2:
		if ev.Kind == ctrl.EventDriftDetected || ev.Kind == ctrl.EventRefitStart {
			return fail("E", fmt.Errorf("resume re-triggered %q", ev.Kind))
		}
	case <-time.After(300 * time.Millisecond):
	}
	phases = append(phases, "E")

	fmt.Fprintf(out, "ctrlcheck: PASS phases=%s epoch=%d recovery=%.3fs\n",
		strings.Join(phases, ","), c2.Status().Epoch, recovery)
	return nil
}

// fitStaleIncumbent builds the pre-drift serving pair: an adapter whose
// few-shot support came from the source itself (so it adapts nothing) and
// the downstream classifier trained through it.
func fitStaleIncumbent(pair *experiments.Pair, seed int64) (*core.Adapter, *models.MLPClassifier, error) {
	support := subset(pair.Source, 40)
	ad := core.NewAdapter(core.AdapterConfig{
		Mode:  core.ModeFSRecon,
		Recon: core.ReconGAN,
		GAN:   core.GANConfig{Epochs: 2},
		Seed:  seed,
	})
	if err := ad.Fit(pair.Source, support); err != nil {
		return nil, nil, fmt.Errorf("fit stale incumbent: %w", err)
	}
	train, err := ad.TrainingData(pair.Source)
	if err != nil {
		return nil, nil, err
	}
	clf := models.NewMLPClassifier(models.Options{Seed: seed, Epochs: 6})
	if err := clf.Fit(train.X, train.Y, pair.NumClasses); err != nil {
		return nil, nil, fmt.Errorf("fit classifier: %w", err)
	}
	return ad, clf, nil
}

// fitBrokenAdapter produces an adapter of the wrong feature width (fitted
// on a narrowed source), so full-width serving rows make it error and the
// coalescer degrade every response to passthrough.
func fitBrokenAdapter(pair *experiments.Pair, seed int64) (*core.Adapter, error) {
	w := len(pair.Source.X[0])
	keep := make([]int, w-1)
	for i := range keep {
		keep[i] = i
	}
	narrow, err := pair.Source.SelectFeatures(keep)
	if err != nil {
		return nil, err
	}
	ad := core.NewAdapter(core.AdapterConfig{Mode: core.ModeFS, Seed: seed})
	if err := ad.Fit(narrow, subset(narrow, 40)); err != nil {
		return nil, fmt.Errorf("fit broken adapter: %w", err)
	}
	return ad, nil
}

// subset returns the first n rows of ds (deep enough a copy for serving).
func subset(ds *dataset.Dataset, n int) *dataset.Dataset {
	if n > len(ds.X) {
		n = len(ds.X)
	}
	return &dataset.Dataset{X: ds.X[:n], Y: ds.Y[:n]}
}

// goldenAdapt computes the bit-exact expected /v1/adapt output for rows
// under b, plus the request body that asks for it.
func goldenAdapt(b *serve.Bundle, rows [][]float64) ([][]float64, []byte, error) {
	seeds := make([]int64, len(rows))
	for i := range seeds {
		seeds[i] = core.SampleSeed(0, i)
	}
	var scr core.AdaptScratch
	outT, err := b.Adapter.AdaptBatch(rows, seeds, &scr)
	if err != nil {
		return nil, nil, fmt.Errorf("golden adaptation: %w", err)
	}
	golden := make([][]float64, outT.Rows())
	for i := range golden {
		golden[i] = append([]float64(nil), outT.Row(i)...)
	}
	body, err := json.Marshal(serve.AdaptRequest{Rows: rows})
	if err != nil {
		return nil, nil, err
	}
	return golden, body, nil
}

// postAdaptRows posts one /v1/adapt request and returns the adapted rows
// and bundle id (error on non-200 or degraded responses).
func postAdaptRows(base string, body []byte) ([][]float64, string, error) {
	res, err := http.Post(base+serve.EndpointAdapt, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	defer res.Body.Close()
	var ar serve.AdaptResponse
	if err := json.NewDecoder(res.Body).Decode(&ar); err != nil {
		return nil, "", err
	}
	if res.StatusCode != http.StatusOK || ar.Degraded {
		return nil, "", fmt.Errorf("status %d degraded=%v", res.StatusCode, ar.Degraded)
	}
	return ar.Rows, ar.BundleID, nil
}

func sameFloatRows(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// scrapeMetric fetches /metrics and returns the first line bearing name.
func scrapeMetric(base, name string) (string, error) {
	res, err := http.Get(base + "/metrics")
	if err != nil {
		return "", err
	}
	defer res.Body.Close()
	blob, err := io.ReadAll(res.Body)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if strings.HasPrefix(line, name) {
			return line, nil
		}
	}
	return "", fmt.Errorf("metric %s not found on /metrics", name)
}
