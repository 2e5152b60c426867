package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"netdrift/internal/core"
	"netdrift/internal/dataset"
	"netdrift/internal/experiments"
	"netdrift/internal/metrics"
	"netdrift/internal/models"
	"netdrift/internal/nn"
)

// fit-5gc: the paper's offline pipeline (§VI-D). A job is one full
// pipeline, configured as driftserve -mkbundle does: FS search, CGAN
// training, TrainingData, MLP fit, then TransformTarget and predict on the
// target-test rows. Each job gets its own 5GC pair and few-shot draw,
// derived from the seed at set-up; a run fits Seconds/pipelineSeconds of
// them, the same inputs in every run with that seed. It serves no
// requests, so p50_ms and tail_ms read the pipeline's own latency. After
// each pipeline the fitted pair adapts and classifies the test rows in
// 32-row micro-batches, the per-sample inference the paper reports; they
// are checked bit for bit and timed per layer (core.adapt_us_per_row,
// models.predict_us_per_row), not bounded: their median moved by up to half
// from run to run with the load on the shared host (see README.md).

type fitEnv struct {
	cfg    config
	inputs []fitInput
}

type fitInput struct {
	seed    int64
	pair    *experiments.Pair
	support *dataset.Dataset
}

func setupFit(cfg config, seed int64, _ *tracer) (env, error) {
	e := &fitEnv{cfg: cfg}
	for k := 0; k < max(1, int(math.Round(cfg.Seconds/pipelineSeconds))); k++ {
		s := subSeed(seed, k)
		pair, err := experiments.MakePair("5gc", cfg.Quick, s)
		if err != nil {
			return nil, err
		}
		support, _, err := pair.TargetTrain.FewShot(shots, pair.UseGroups, rand.New(rand.NewSource(s+977)))
		if err != nil {
			return nil, err
		}
		e.inputs = append(e.inputs, fitInput{seed: s, pair: pair, support: support})
	}
	return e, nil
}

func (e *fitEnv) close() {}

func (e *fitEnv) run(tr *tracer) (*phase, error) {
	p := &phase{correct: true}
	var allocs, f1s, adaptUS, predictUS []float64
	for _, in := range e.inputs {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		ad, clf, aligned, f1, err := pipeline(in, e.cfg.Quick.GANEpochs, e.cfg.Quick.ClassifierEpochs, tr)
		if err != nil {
			return nil, err
		}
		secs := time.Since(start).Seconds()
		p.jobs = append(p.jobs, secs)
		p.lat = append(p.lat, secs*1e3)
		runtime.ReadMemStats(&after)
		allocs = append(allocs, mb(after.TotalAlloc-before.TotalAlloc))
		f1s = append(f1s, f1)

		// The micro-batches: InferPasses passes over the test rows, every
		// batch checked bit for bit against TransformTarget, which AdaptBatch
		// with zero seeds must reproduce exactly. They start on a collected
		// heap, so the pipeline's garbage is not charged to them.
		runtime.GC()
		mismatch := math.IsNaN(f1)
		test := in.pair.TargetTest.X
		var rows [][]float64
		for k := 0; k < e.cfg.InferPasses; k++ {
			rows = append(rows, test...)
		}
		aUS, pUS, err := microBatch(ad, clf, rows, inferBatch, 0, func(lo int, out *nn.Tensor) {
			for i := 0; i < out.Rows(); i++ {
				if !sameBits(out.Row(i), aligned[(lo+i)%len(test)]) {
					mismatch = true
				}
			}
		})
		if err != nil {
			return nil, err
		}
		adaptUS, predictUS = append(adaptUS, aUS), append(predictUS, pUS)
		p.attempted++
		if mismatch {
			p.failed++
			p.correct = false
		}
	}
	p.allocMB = median(allocs)
	p.layers = map[string]float64{
		"quality.fit_f1":            median(f1s),
		"core.adapt_us_per_row":     median(adaptUS),
		"models.predict_us_per_row": median(predictUS),
	}
	p.detail = map[string]string{"fit_f1": fmt.Sprintf("median macro-F1 %.2f over %d pipelines", median(f1s), len(f1s))}
	return p, nil
}

// pipeline fits FS+GAN and the MLP on one input as driftserve -mkbundle
// does, adapts and classifies the target-test rows, and returns the fitted
// pair, the adapted rows and their macro-F1.
func pipeline(in fitInput, ganEpochs, mlpEpochs int, tr *tracer) (*core.Adapter, *models.MLPClassifier, [][]float64, float64, error) {
	pair := in.pair
	ad := core.NewAdapter(core.AdapterConfig{
		Mode:    core.ModeFSRecon,
		Recon:   core.ReconGAN,
		GAN:     core.GANConfig{Epochs: ganEpochs},
		Seed:    in.seed,
		Workers: workers(),
		Obs:     tr.observer(),
	})
	clf := models.NewMLPClassifier(models.Options{Seed: in.seed, Epochs: mlpEpochs})
	var train *dataset.Dataset
	var aligned [][]float64
	var pred []int
	steps := []struct {
		name string
		fn   func() error
	}{
		{"adapter_fit", func() error { return ad.Fit(pair.Source, in.support) }},
		{"training_data", func() (err error) { train, err = ad.TrainingData(pair.Source); return err }},
		{"mlp_fit", func() error { return clf.Fit(train.X, train.Y, pair.NumClasses) }},
		{"transform", func() (err error) { aligned, err = ad.TransformTarget(pair.TargetTest.X); return err }},
		{"predict", func() (err error) { pred, err = models.PredictClasses(clf, aligned); return err }},
	}
	for _, s := range steps {
		if err := tr.call(s.name, s.fn); err != nil {
			return nil, nil, nil, 0, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	f1, err := metrics.MacroF1Score(pair.TargetTest.Y, pred, pair.NumClasses)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	return ad, clf, aligned, f1, nil
}

// microBatch adapts and classifies rows in batches of n, as the serving
// executor does (AdaptBatch, then PredictProbaT, each on its own scratch),
// with row i of a batch seeded core.SampleSeed(seed, i). It returns the
// adapt and predict time per row in µs; visit, when non-nil, sees every
// batch's adapted rows.
func microBatch(ad *core.Adapter, clf *models.MLPClassifier, rows [][]float64, n int, seed int64,
	visit func(lo int, adapted *nn.Tensor)) (adaptUS, predictUS float64, err error) {
	var as core.AdaptScratch
	var ms models.MLPScratch
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = core.SampleSeed(seed, i)
	}
	var adaptT, predictT time.Duration
	for lo := 0; lo < len(rows); lo += n {
		hi := min(lo+n, len(rows))
		t0 := time.Now()
		adapted, err := ad.AdaptBatch(rows[lo:hi], seeds[:hi-lo], &as)
		if err != nil {
			return 0, 0, err
		}
		t1 := time.Now()
		if _, err := clf.PredictProbaT(adapted, &ms); err != nil {
			return 0, 0, err
		}
		t2 := time.Now()
		adaptT += t1.Sub(t0)
		predictT += t2.Sub(t1)
		if visit != nil {
			visit(lo, adapted)
		}
	}
	perRow := func(d time.Duration) float64 {
		return float64(d) / float64(time.Microsecond) / float64(max(len(rows), 1))
	}
	return perRow(adaptT), perRow(predictT), nil
}

// sameBits reports whether a and b hold exactly the same float64 bits.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
