package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"netdrift/internal/core"
	"netdrift/internal/ctrl"
	"netdrift/internal/dataset"
	"netdrift/internal/experiments"
	"netdrift/internal/monitor"
	"netdrift/internal/obs"
	"netdrift/internal/serve"
)

// drift-campaign: the closed loop on bench-scale 5GIPC. Set-up serves a
// stale incumbent (an adapter whose few-shot support is the source itself,
// so it finds no variant feature and adapts nothing, plus its MLP) and arms
// the controller as driftserve -ctrl does, with a cooldown longer than any
// run so exactly one campaign fires. The timed phase sends one schedule
// over the load generator's connections: adapt requests at driftRate, and
// labelled drifted target rows to /v1/ingest, ingestRows every ingestEvery.
// The job is the campaign, from the first drifted ingest to promote, or to
// the shadow gate's rejection when the refit does not beat the incumbent;
// the requests are the adapt requests due in that window, which compete
// with the refit for the CPUs. Streams run until the campaign ends (after
// the watchdog on a promotion) and at least Seconds.

type driftEnv struct {
	cfg    config
	dir    string
	stack  *stack
	ctl    *ctrl.Controller
	det    *monitor.Detector
	events chan ctrl.Event

	incumbent string // bundle file served before the campaign
	rows      [][]float64
	ingestX   [][]float64
	ingestY   []int
	ops       []op

	refitMu sync.Mutex
	refit   refitWindow // the last refit attempt
}

// refitWindow is when a refit ran and the bytes the process allocated
// meanwhile.
type refitWindow struct {
	from, to time.Time
	alloc    uint64
}

// campaignFailures end a campaign without a verdict on the candidate.
var campaignFailures = map[string]bool{
	ctrl.EventRefitFail: true, ctrl.EventPromoteFail: true, ctrl.EventRollback: true,
}

func setupDrift(cfg config, seed int64, tr *tracer) (env, error) {
	pair, err := experiments.MakePair("5gipc", cfg.Drift, seed)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.WorkDir, "drift-")
	if err != nil {
		return nil, err
	}
	e := &driftEnv{cfg: cfg, dir: dir, incumbent: filepath.Join(dir, "incumbent.ndbf"),
		rows: pair.TargetTest.X, events: make(chan ctrl.Event, 1024)}
	// The incumbent is set-up, not the campaign under test, so it is fitted
	// untraced and the traced layers describe the campaign alone.
	stale := fitInput{seed: seed, pair: pair, support: pair.Source}
	ad, clf, _, _, err := pipeline(stale, staleGANEpochs, staleMLPEpochs, nil)
	if err != nil {
		e.close()
		return nil, err
	}
	if err := serve.WriteBundleFileFormat(e.incumbent, "stale-incumbent", ad, clf, serve.FormatBinary); err != nil {
		e.close()
		return nil, err
	}
	if e.stack, err = newStack(seed, tr, e.incumbent); err != nil {
		e.close()
		return nil, err
	}
	e.det = monitor.New(monitor.Config{})
	if err := e.det.Fit(pair.Source.X); err != nil {
		e.close()
		return nil, err
	}

	// The gate probes the first 256 target-test rows (at most half of them);
	// telemetry comes from the rest of the target data, so probe rows never
	// reach the reservoir.
	probeRows := min(256, len(pair.TargetTest.X)/2)
	probe := head(pair.TargetTest, probeRows)
	pool, err := dataset.Concat(pair.TargetTrain, &dataset.Dataset{X: pair.TargetTest.X[probeRows:], Y: pair.TargetTest.Y[probeRows:]})
	if err != nil {
		e.close()
		return nil, err
	}
	e.ingestX, e.ingestY = pool.X, pool.Y

	refit := func(ctx context.Context, shots *dataset.Dataset, epoch int) (*ctrl.Candidate, error) {
		ad := core.NewAdapter(core.AdapterConfig{
			Mode: core.ModeFSRecon, Recon: core.ReconGAN,
			GAN:  core.GANConfig{Epochs: cfg.Drift.GANEpochs},
			Seed: seed + int64(epoch), Workers: workers(), Obs: tr.observer(),
		})
		var before, after runtime.MemStats
		from := time.Now()
		runtime.ReadMemStats(&before)
		err := tr.call("adapter_fit", func() error { return ad.Fit(pair.Source, shots) })
		runtime.ReadMemStats(&after)
		e.refitMu.Lock()
		e.refit = refitWindow{from: from, to: time.Now(), alloc: after.TotalAlloc - before.TotalAlloc}
		e.refitMu.Unlock()
		if err != nil {
			return nil, err
		}
		return &ctrl.Candidate{ID: fmt.Sprintf("refit-epoch%d", epoch), Adapter: ad}, nil
	}
	e.ctl, err = ctrl.New(ctrl.Config{
		Detector: e.det, Registry: e.stack.reg, Refit: refit,
		Probe: probe, NumClasses: pair.NumClasses,
		WindowSize: driftWindow, DriftUp: 2, Cooldown: time.Hour, ShotsPerClass: shots,
		BundleDir: dir, BundleFormat: serve.FormatBinary, InitialBundlePath: e.incumbent,
		SLO: e.stack.srv.SLOSet(), WatchFor: cfg.WatchFor,
		Seed: seed, Obs: e.stack.o,
		OnEvent: func(ev ctrl.Event) {
			select {
			case e.events <- ev:
			default: // a full buffer only drops events after the ones the run waits for
			}
		},
	})
	if err != nil {
		e.close()
		return nil, err
	}
	e.stack.srv.SetIngest(e.ctl)
	e.ctl.Start()
	if err := e.stack.listen(); err != nil {
		e.close()
		return nil, err
	}

	rng := rand.New(rand.NewSource(seed))
	horizon := cfg.CampaignTimeout + cfg.window()
	order := rng.Perm(len(e.ingestX))
	e.ops = mergeOps(
		periodicIngest(0, 0, horizon, ingestEvery, ingestRows, order),
		poissonAdapt(rng, 0, 0, horizon, driftRate, len(e.rows)),
	)
	return e, nil
}

func head(ds *dataset.Dataset, n int) *dataset.Dataset {
	n = min(n, len(ds.X))
	return &dataset.Dataset{X: ds.X[:n], Y: ds.Y[:n]}
}

func (e *driftEnv) close() {
	if e.ctl != nil {
		e.ctl.Close()
	}
	if e.stack != nil {
		e.stack.close()
	}
	os.RemoveAll(e.dir)
}

func (e *driftEnv) run(tr *tracer) (*phase, error) {
	idPrefix := ""
	if tr != nil {
		idPrefix = "drift-"
	}
	client := newWireClient(e.stack.base, conns(), e.ops, e.rows, e.ingestX, e.ingestY, idPrefix)
	defer client.close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var outs []outcome
	start := time.Now()
	streamed := make(chan struct{})
	go func() {
		defer close(streamed)
		outs = openLoop(ctx, start, e.ops, conns(), client.send)
	}()

	events := make(map[string]ctrl.Event)
	retries := 0
	timeout := time.After(e.cfg.CampaignTimeout)
	var failure error
	done := func() bool {
		_, cleared := events[ctrl.EventWatchClear]
		_, rejected := events[ctrl.EventGateFail]
		return cleared || rejected
	}
	for !done() && failure == nil {
		select {
		case ev := <-e.events:
			if _, seen := events[ev.Kind]; !seen {
				events[ev.Kind] = ev
			}
			if ev.Kind == ctrl.EventRefitRetry {
				retries++
			}
			if campaignFailures[ev.Kind] {
				failure = fmt.Errorf("campaign ended with %s: %s", ev.Kind, ev.Detail)
			}
		case <-timeout:
			failure = fmt.Errorf("campaign unfinished after %s", e.cfg.CampaignTimeout)
		case <-streamed:
			failure = fmt.Errorf("schedule ran out before the campaign ended")
		}
	}
	if failure == nil {
		select {
		case <-time.After(time.Until(start.Add(e.cfg.window()))):
		case <-streamed:
		}
	}
	cancel()
	<-streamed
	e.ctl.Close() // no more campaign work: the detector is ours to time below
	if failure != nil {
		return nil, failure
	}

	// The first op is the first ingest: drift starts when it is sent.
	onset := outs[0].Sent
	verdict, promoted := events[ctrl.EventPromote]
	if !promoted {
		verdict = events[ctrl.EventGateFail]
	}
	end := verdict.At.Sub(start)
	p := &phase{correct: true, layers: make(map[string]float64)}
	p.jobs = []float64{(end - onset).Seconds()}
	p.allocMB = e.refitAllocPerKiloRequest(start, outs)
	window := func(o op) bool { return o.Kind == opAdapt && o.Due >= onset && o.Due <= end }
	p.lat = stepStats(e.ops, outs, window).latMS

	all := stepStats(e.ops, outs, func(o op) bool { return true })
	ingest := stepStats(e.ops, outs, func(o op) bool { return o.Kind == opIngest })
	p.layers["loadgen.late_ms_tail"] = all.late.Tail
	p.layers["loadgen.backlog_max"] = float64(all.backlogMax)
	p.layers["ctrl.ingest_ms_p50"], p.layers["ctrl.ingest_ms_tail"] = ingest.lat.Median, ingest.lat.Tail
	p.layers["ctrl.detect_s"] = (events[ctrl.EventDriftDetected].At.Sub(start) - onset).Seconds()
	p.layers["ctrl.refit_attempts"] = float64(1 + retries)
	reg := e.stack.o.Registry
	p.layers["ctrl.gate_candidate_f1"], _ = reg.Value(obs.MetricCtrlGateScore, "role", "candidate")
	p.layers["ctrl.gate_incumbent_f1"], _ = reg.Value(obs.MetricCtrlGateScore, "role", "incumbent")
	gate := events[ctrl.EventGatePass]
	if !promoted {
		gate = events[ctrl.EventGateFail]
	}
	p.detail = map[string]string{"campaign": gate.Kind + ": " + gate.Detail}

	last, err := serve.LoadBundleFile(e.incumbent)
	if err != nil {
		return nil, err
	}
	bundles := map[string]*serve.Bundle{last.ID: last}
	if promoted {
		if last, err = serve.LoadBundleFile(e.ctl.Status().PromotedPath); err != nil {
			return nil, err
		}
		bundles[last.ID] = last
	}
	v, err := verifyAdapt(bundles, e.rows, e.ops, outs)
	if err != nil {
		return nil, err
	}
	v.apply(p)
	if tr != nil {
		p.layers["serve.transport_ms_p50"] = median(transportMS(outs, "drift-", tr.handlerMS()))
		if err := inferLayers(p, last, e.rows); err != nil {
			return nil, err
		}
		if p.layers["monitor.check_ms"], err = e.checkMS(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// refitAllocPerKiloRequest is the MB the process allocated while the refit
// ran, per 1,000 requests sent meanwhile. Most of the total is the serving
// traffic beside the refit, which arrives at a fixed rate: across runs on
// the reference host the total grew by about 20 MB per second of refit, so
// the raw total carries the host's speed. Per request, it does not.
func (e *driftEnv) refitAllocPerKiloRequest(start time.Time, outs []outcome) float64 {
	e.refitMu.Lock()
	w := e.refit
	e.refitMu.Unlock()
	from, to := w.from.Sub(start), w.to.Sub(start)
	sent := 0
	for _, o := range outs {
		if o.Sent >= from && o.Sent <= to {
			sent++
		}
	}
	return mb(w.alloc) * 1000 / float64(max(sent, 1))
}

// checkMS times Detector.Check on a window of driftWindow drifted rows.
func (e *driftEnv) checkMS() (float64, error) {
	win := e.ingestX[:min(driftWindow, len(e.ingestX))]
	var xs []float64
	for i := 0; i < 25; i++ {
		t0 := time.Now()
		if _, err := e.det.Check(win); err != nil {
			return 0, err
		}
		xs = append(xs, msOf(time.Since(t0)))
	}
	return median(xs), nil
}
