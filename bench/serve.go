package main

import (
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"netdrift/internal/core"
	"netdrift/internal/experiments"
	"netdrift/internal/models"
	"netdrift/internal/nn"
	"netdrift/internal/obs"
	"netdrift/internal/serve"
)

// serve-open: open-loop /v1/adapt traffic against a quick-scale 5GC
// FS+GAN+MLP bundle served with driftserve's defaults. The requests are a
// Poisson stream at refRate; p50_ms comes from them. The job is a
// closed-loop burst of cfg.Burst requests over the same connections, which
// measures how fast the stack drains work; it stands in for the rate
// ladder's max_rps, whose 100 req/s steps are too coarse for a regression
// bound. Traced runs also climb the ladder (every other rate in
// ladderRates), after the burst, for the per-layer load-generator metrics.

// stack is the serving stack as driftserve's buildStack assembles it with
// its default flags: bundle-load and executor breakers, MaxBatch 32,
// MaxWait 2 ms, one executor, MaxQueue 4096, SLO 250 ms / 0.999, and an
// armed flight recorder. The recorder's incident auto-snapshot stays
// disarmed: it would write flightrec.json into the working directory.
type stack struct {
	o      *obs.Observer
	reg    *serve.Registry
	co     *serve.Coalescer
	srv    *serve.Server
	hs     *http.Server
	base   string
	served chan struct{}
}

func newStack(seed int64, tr *tracer, bundlePath string) (*stack, error) {
	o := obs.New()
	if t := tr.observer(); t != nil {
		traced := *t
		o = &traced
	}
	o.Flight = obs.NewFlightRecorder(obs.DefaultFlightCapacity)
	o.Flight.CountEvents(o.Registry.Counter(obs.MetricFlightEvents))
	if o.Spans != nil {
		o.Spans = o.Flight.SpanSink(o.Spans)
	}
	breaker := serve.BreakerConfig{FailThreshold: 3, BaseBackoff: 100 * time.Millisecond, MaxBackoff: 30 * time.Second, Seed: seed}
	reg := serve.NewRegistry(o)
	reg.SetBreaker(serve.NewBreaker("bundle_load", breaker, o))
	co := serve.NewCoalescer(reg, serve.Options{
		MaxBatch: 32, MaxWait: 2 * time.Millisecond, Workers: 1, MaxQueue: 4096,
		Breaker: breaker, Obs: o,
	})
	srv := serve.NewServer(reg, co, o)
	srv.ConfigureSLO(obs.SLO{LatencyObjective: 0.25, Availability: 0.999})
	if _, err := reg.LoadFile(bundlePath); err != nil {
		co.Close()
		return nil, err
	}
	return &stack{o: o, reg: reg, co: co, srv: srv}, nil
}

// listen starts serving on a loopback port.
func (s *stack) listen() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return nil
}

func (s *stack) close() {
	if s.hs != nil {
		s.hs.Close()
		<-s.served
	}
	s.co.Close()
}

type serveEnv struct {
	cfg    config
	dir    string
	stack  *stack
	bundle string      // bundle file being served
	rows   [][]float64 // target-test rows the requests draw from
	ref    []op        // the refRate stream
	ladder []op        // the other rates, traced runs only
	burst  []op
}

func setupServe(cfg config, seed int64, tr *tracer) (env, error) {
	pair, err := experiments.MakePair("5gc", cfg.Quick, seed)
	if err != nil {
		return nil, err
	}
	support, _, err := pair.TargetTrain.FewShot(shots, pair.UseGroups, rand.New(rand.NewSource(seed+977)))
	if err != nil {
		return nil, err
	}
	ad, clf, _, _, err := pipeline(fitInput{seed: seed, pair: pair, support: support},
		cfg.Quick.GANEpochs, cfg.Quick.ClassifierEpochs, tr)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.WorkDir, "serve-")
	if err != nil {
		return nil, err
	}
	e := &serveEnv{cfg: cfg, dir: dir, bundle: filepath.Join(dir, "bundle.ndbf"), rows: pair.TargetTest.X}
	if err := serve.WriteBundleFileFormat(e.bundle, fmt.Sprintf("5gc-quick-seed%d", seed), ad, clf, serve.FormatBinary); err != nil {
		e.close()
		return nil, err
	}
	if e.stack, err = newStack(seed, tr, e.bundle); err != nil {
		e.close()
		return nil, err
	}
	if err := e.stack.listen(); err != nil {
		e.close()
		return nil, err
	}

	e.ref, e.ladder, e.burst = serveSchedule(cfg, seed, len(e.rows))
	return e, nil
}

// serveSchedule draws serve-open's requests from the seed: the refRate
// stream, the other ladder rates as one open-loop schedule, and the burst.
// Op.Step indexes ladderRates.
func serveSchedule(cfg config, seed int64, pool int) (ref, ladder, burst []op) {
	rng := rand.New(rand.NewSource(seed))
	var at time.Duration
	for step, rate := range ladderRates {
		if rate == refRate {
			ref = poissonAdapt(rng, step, 0, time.Duration(refShare*float64(cfg.window())), rate, pool)
			continue
		}
		dur := time.Duration(stepShare * float64(cfg.window()))
		ladder = append(ladder, poissonAdapt(rng, step, at, dur, rate, pool)...)
		at += dur + stepGap
	}
	return ref, ladder, burstAdapt(rng, len(ladderRates), 0, cfg.Burst, pool)
}

func (e *serveEnv) close() {
	if e.stack != nil {
		e.stack.close()
	}
	os.RemoveAll(e.dir)
}

func (e *serveEnv) run(tr *tracer) (*phase, error) {
	send := func(ops []op, idPrefix string) []outcome {
		if tr == nil {
			idPrefix = ""
		}
		c := newWireClient(e.stack.base, conns(), ops, e.rows, nil, nil, idPrefix)
		defer c.close()
		return openLoop(context.Background(), time.Now(), ops, conns(), c.send)
	}
	refOut := send(e.ref, "ref-")
	time.Sleep(stepGap)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	burstOut := send(e.burst, "burst-")
	runtime.ReadMemStats(&after)
	// The ladder runs last, so the burst follows the same traffic in traced
	// and untraced passes and trace.overhead_frac measures tracing alone.
	var ladderOut []outcome
	if tr != nil {
		time.Sleep(stepGap)
		ladderOut = send(e.ladder, "ladder-")
	}

	p := &phase{correct: true, layers: make(map[string]float64)}
	first, last := time.Duration(-1), time.Duration(0)
	for _, o := range burstOut {
		if o.Sent >= 0 && (first < 0 || o.Sent < first) {
			first = o.Sent
		}
		last = max(last, o.Done)
	}
	p.jobs = []float64{(last - first).Seconds()}
	p.allocMB = mb(after.TotalAlloc - before.TotalAlloc)

	ref := stepStats(e.ref, refOut, func(op) bool { return true })
	p.lat = ref.latMS
	p.layers["loadgen.late_ms_tail"] = ref.late.Tail
	p.layers["loadgen.backlog_max"] = float64(ref.backlogMax)
	if tr != nil {
		maxRPS, passing := 0.0, true
		for step, rate := range ladderRates {
			st := ref
			if rate != refRate {
				st = stepStats(e.ladder, ladderOut, func(o op) bool { return o.Step == step })
			}
			suffix := fmt.Sprintf(".r%.0f", rate)
			p.layers["loadgen.tail_ms"+suffix] = st.lat.Tail
			p.layers["loadgen.late_ms_tail"+suffix] = st.late.Tail
			p.layers["loadgen.backlog_max"+suffix] = float64(st.backlogMax)
			// A step sustains its rate when nothing failed and the tail meets
			// the limit. Latency runs from the due time, so a backlog that
			// grows through the step pushes the tail past the limit.
			passing = passing && st.failed == 0 && st.lat.Tail <= limitMS
			if passing {
				maxRPS = rate
			}
		}
		p.layers["loadgen.max_rps"] = maxRPS
		p.detail = map[string]string{"max_rps": fmt.Sprintf("%.0f req/s (tail <= %.0f ms)", maxRPS, limitMS)}
	}

	b, err := serve.LoadBundleFile(e.bundle)
	if err != nil {
		return nil, err
	}
	ops := append(append([]op(nil), e.ref...), e.burst...)
	outs := append(append([]outcome(nil), refOut...), burstOut...)
	if tr != nil {
		ops, outs = append(ops, e.ladder...), append(outs, ladderOut...)
	}
	v, err := verifyAdapt(map[string]*serve.Bundle{b.ID: b}, e.rows, ops, outs)
	if err != nil {
		return nil, err
	}
	v.apply(p)
	if tr != nil {
		handler := tr.handlerMS()
		transport := transportMS(refOut, "ref-", handler)
		transport = append(transport, transportMS(ladderOut, "ladder-", handler)...)
		transport = append(transport, transportMS(burstOut, "burst-", handler)...)
		p.layers["serve.transport_ms_p50"] = median(transport)
		if err := inferLayers(p, b, e.rows); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// stepOutcome summarizes the requests of one load step.
type stepOutcome struct {
	failed     int
	backlogMax int
	latMS      []float64 // successful requests, from due time
	lat, late  summary
}

func stepStats(ops []op, outs []outcome, in func(op) bool) stepOutcome {
	var st stepOutcome
	var late []float64
	for i, o := range ops {
		if !in(o) {
			continue
		}
		out := outs[i]
		st.backlogMax = max(st.backlogMax, out.Backlog)
		if out.Sent < 0 || !out.ok() {
			st.failed++
			continue
		}
		late = append(late, msOf(out.Sent-o.Due))
		st.latMS = append(st.latMS, msOf(out.Done-o.Due))
	}
	st.lat, st.late = summarize(st.latMS), summarize(late)
	return st
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// transportMS is each traced request's client round trip minus the
// server's handler time: connection, HTTP framing and scheduling.
func transportMS(outs []outcome, prefix string, handler map[string]float64) []float64 {
	var xs []float64
	for i, o := range outs {
		if h, ok := handler[fmt.Sprintf("%s%d", prefix, i)]; ok && o.Sent >= 0 {
			xs = append(xs, msOf(o.Done-o.Sent)-h)
		}
	}
	return xs
}

// verified is the result of checking every adapt response.
type verified struct {
	attempted, failed, mismatched int
	encodeUS, decodeUS            float64 // per request
}

func (v verified) apply(p *phase) {
	p.attempted += v.attempted
	p.failed += v.failed
	p.correct = p.correct && v.mismatched == 0
	p.layers["serve.encode_us_per_req"] = v.encodeUS
	p.layers["serve.decode_us_per_req"] = v.decodeUS
}

// verifyAdapt recomputes every /v1/adapt answer in process, from the bundle
// file that served it, and compares it bit for bit with what the server
// sent: the same AdaptBatch rows (seeded core.SampleSeed(seed, i)) and
// PredictProbaT probabilities, in the same binary encoding, compared by a
// 64-bit hash of the bytes. Ingest ops count as attempted and must answer
// 200. It also times the wire codec on the run's own bodies.
func verifyAdapt(bundles map[string]*serve.Bundle, rows [][]float64, ops []op, outs []outcome) (verified, error) {
	var v verified
	var as core.AdaptScratch
	var ms models.MLPScratch
	var rb serve.RowBuf
	var gather [][]float64
	var seeds []int64
	var enc, reqBuf []byte
	var encodeT, decodeT time.Duration
	coded := 0
	for i, o := range ops {
		out := outs[i]
		if out.Sent < 0 {
			continue // never due: the stream stopped first
		}
		v.attempted++
		if !out.ok() {
			v.failed++
			continue
		}
		if o.Kind != opAdapt {
			continue
		}
		b := bundles[out.Bundle]
		if b == nil {
			return v, fmt.Errorf("response %d came from unknown bundle %q", i, out.Bundle)
		}
		gather, seeds = gather[:0], seeds[:0]
		for k, r := range o.Rows {
			gather = append(gather, rows[r])
			seeds = append(seeds, core.SampleSeed(o.Seed, k))
		}
		adapted, err := b.Adapter.AdaptBatch(gather, seeds, &as)
		if err != nil {
			return v, err
		}
		probs, err := b.Classifier.PredictProbaT(adapted, &ms)
		if err != nil {
			return v, err
		}
		res := serve.Result{BundleID: b.ID, Rows: tensorRows(adapted), Predictions: tensorRows(probs)}
		t0 := time.Now()
		enc = serve.AppendRowsResponse(enc[:0], &res)
		encodeT += time.Since(t0)
		if maphash.Bytes(hashSeed, enc) != out.Sum {
			v.failed++
			v.mismatched++
		}
		reqBuf = serve.AppendRowsRequest(reqBuf[:0], gather, o.Seed, true)
		t0 = time.Now()
		if _, _, _, err := serve.DecodeRowsRequest(reqBuf, &rb); err != nil {
			return v, err
		}
		decodeT += time.Since(t0)
		coded++
	}
	if coded > 0 {
		v.encodeUS = float64(encodeT) / float64(time.Microsecond) / float64(coded)
		v.decodeUS = float64(decodeT) / float64(time.Microsecond) / float64(coded)
	}
	return v, nil
}

func tensorRows(t *nn.Tensor) [][]float64 {
	out := make([][]float64, t.Rows())
	for i := range out {
		out[i] = t.Row(i)
	}
	return out
}

// inferLayers times the served bundle's adapt and predict kernels offline,
// in 32-row micro-batches over the request rows repeated to at least 2,048
// rows, with nonzero seeds as the traffic uses.
func inferLayers(p *phase, b *serve.Bundle, rows [][]float64) error {
	if len(rows) == 0 {
		return errors.New("no rows to time inference on")
	}
	var many [][]float64
	for len(many) < 2048 {
		many = append(many, rows...)
	}
	adaptUS, predictUS, err := microBatch(b.Adapter, b.Classifier, many, 32, 1, nil)
	if err != nil {
		return err
	}
	p.layers["core.adapt_us_per_row"] = adaptUS
	p.layers["models.predict_us_per_row"] = predictUS
	return nil
}
