package monitor

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"netdrift/internal/dataset"
	"netdrift/internal/obs"
)

func gaussRows(n, d int, shift float64, shiftCols []int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	isShift := map[int]bool{}
	for _, c := range shiftCols {
		isShift[c] = true
	}
	out := make([][]float64, n)
	for i := range out {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.NormFloat64()
			if isShift[j] {
				row[j] += shift
			}
		}
		out[i] = row
	}
	return out
}

func TestDetectorNoDriftStaysQuiet(t *testing.T) {
	det := New(Config{})
	if err := det.Fit(gaussRows(2000, 20, 0, nil, 1)); err != nil {
		t.Fatal(err)
	}
	// Several clean windows: none should trigger.
	for w := 0; w < 5; w++ {
		rep, err := det.Check(gaussRows(200, 20, 0, nil, int64(100+w)))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Drifted {
			t.Errorf("window %d: false drift alarm (features %v)", w, rep.DriftedFeatures)
		}
	}
}

func TestDetectorCatchesShift(t *testing.T) {
	det := New(Config{})
	if err := det.Fit(gaussRows(2000, 20, 0, nil, 2)); err != nil {
		t.Fatal(err)
	}
	rep, err := det.Check(gaussRows(200, 20, 1.5, []int{3, 7, 11}, 200))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Drifted {
		t.Fatal("shifted window not detected")
	}
	found := map[int]bool{}
	for _, f := range rep.DriftedFeatures {
		found[f] = true
	}
	for _, want := range []int{3, 7, 11} {
		if !found[want] {
			t.Errorf("shifted feature %d not flagged; flagged=%v", want, rep.DriftedFeatures)
		}
	}
	if len(rep.DriftedFeatures) > 5 {
		t.Errorf("too many false positives: %v", rep.DriftedFeatures)
	}
	if rep.MaxPSI <= 0.2 {
		t.Errorf("MaxPSI = %v; want > 0.2 for a 1.5σ shift", rep.MaxPSI)
	}
}

func TestDetectorCatchesVarianceChange(t *testing.T) {
	det := New(Config{})
	if err := det.Fit(gaussRows(2000, 10, 0, nil, 3)); err != nil {
		t.Fatal(err)
	}
	// Triple the spread of one feature (mean unchanged): KS catches shape.
	rng := rand.New(rand.NewSource(300))
	window := make([][]float64, 300)
	for i := range window {
		row := make([]float64, 10)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		row[4] *= 3
		window[i] = row
	}
	rep, err := det.Check(window)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Drifted {
		t.Error("variance change not detected")
	}
}

func TestDetectorOnSynthetic5GIPC(t *testing.T) {
	d, err := dataset.Synthetic5GIPC(dataset.FiveGIPCConfig{
		Seed:         5,
		SourceNormal: 800, SourceFaults: [4]int{30, 40, 80, 60},
		TargetNormal: 300, TargetFaults: [4]int{15, 20, 40, 30},
		TargetTrainPerGroup: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	det := New(Config{})
	if err := det.Fit(d.Source.X); err != nil {
		t.Fatal(err)
	}
	// A window of source data: quiet.
	quietRep, err := det.Check(d.Source.X[:250])
	if err != nil {
		t.Fatal(err)
	}
	if quietRep.Drifted {
		t.Error("false alarm on in-domain window")
	}
	// A window of target data: drifted.
	driftRep, err := det.Check(d.Targets[0].Test.X[:250])
	if err != nil {
		t.Fatal(err)
	}
	if !driftRep.Drifted {
		t.Error("target-domain drift not detected")
	}
	if len(driftRep.DriftedFeatures) <= len(quietRep.DriftedFeatures) {
		t.Error("target window should flag more features than source window")
	}
}

func TestDetectorErrors(t *testing.T) {
	det := New(Config{})
	if _, err := det.Check([][]float64{{1}}); !errors.Is(err, ErrNotFitted) {
		t.Errorf("err = %v; want ErrNotFitted", err)
	}
	if err := det.Fit(gaussRows(3, 2, 0, nil, 1)); err == nil {
		t.Error("expected error for tiny reference")
	}
	if err := det.Fit(gaussRows(100, 3, 0, nil, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := det.Check(gaussRows(2, 3, 0, nil, 1)); err == nil {
		t.Error("expected error for tiny window")
	}
	if _, err := det.Check(gaussRows(10, 5, 0, nil, 1)); err == nil {
		t.Error("expected error for width mismatch")
	}
}

func TestKSPValueProperties(t *testing.T) {
	// Identical samples: p ≈ 1. Disjoint samples: p ≈ 0.
	a := make([]float64, 500)
	b := make([]float64, 500)
	for i := range a {
		a[i] = float64(i)
		b[i] = float64(i) + 10000
	}
	if _, p := KSTwoSample(a, a); p < 0.99 {
		t.Errorf("KS p for identical samples = %v; want ~1", p)
	}
	if _, p := KSTwoSample(a, b); p > 1e-6 {
		t.Errorf("KS p for disjoint samples = %v; want ~0", p)
	}
	if _, p := KSTwoSample(nil, a); p != 1 {
		t.Errorf("KS p with empty reference = %v; want 1", p)
	}
}

// Property: KS p-values stay in [0, 1] for random inputs.
func TestKSPValueRangeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := make([]float64, 50)
		b := make([]float64, 30)
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		for i := range b {
			b[i] = rng.NormFloat64() + rng.Float64()
		}
		sortFloats(a)
		_, p := KSTwoSample(a, b)
		return p >= 0 && p <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPSIKnownValues(t *testing.T) {
	same := []float64{0.25, 0.25, 0.25, 0.25}
	if psi := PSI(same, same); math.Abs(psi) > 1e-12 {
		t.Errorf("PSI of identical distributions = %v; want 0", psi)
	}
	shifted := []float64{0.1, 0.2, 0.3, 0.4}
	if psi := PSI(same, shifted); psi <= 0 {
		t.Errorf("PSI of different distributions = %v; want > 0", psi)
	}
}

func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func TestFeatureAttribution(t *testing.T) {
	det := New(Config{})
	if err := det.Fit(gaussRows(2000, 10, 0, nil, 5)); err != nil {
		t.Fatal(err)
	}
	rep, err := det.Check(gaussRows(300, 10, 2.0, []int{2, 6}, 500))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Features) != 10 {
		t.Fatalf("attribution covers %d features; want 10", len(rep.Features))
	}
	for j, f := range rep.Features {
		if f.Index != j {
			t.Errorf("feature %d reported index %d", j, f.Index)
		}
		shifted := j == 2 || j == 6
		if f.Rejected != shifted {
			t.Errorf("feature %d: rejected=%v, shifted=%v (KS=%.3f p=%.3g PSI=%.3f)",
				j, f.Rejected, shifted, f.KSStat, f.KSP, f.PSI)
		}
		if f.KSStat < 0 || f.KSStat > 1 {
			t.Errorf("feature %d: KS statistic %v outside [0,1]", j, f.KSStat)
		}
	}
	top := rep.TopOffenders(1)
	if len(top) != 1 || (top[0].Index != 2 && top[0].Index != 6) {
		t.Errorf("TopOffenders(1) = %+v; want one of the shifted features", top)
	}
	all := rep.TopOffenders(100)
	if len(all) != 2 {
		t.Errorf("TopOffenders(100) returned %d features; want 2", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].PSI < all[i].PSI {
			t.Errorf("TopOffenders not sorted by descending PSI: %+v", all)
		}
	}
}

func TestConfigSentinels(t *testing.T) {
	ref := gaussRows(2000, 10, 0, nil, 6)
	shifted := gaussRows(300, 10, 2.0, []int{1, 4}, 600)

	// Negative Alpha disables the KS criterion entirely.
	noKS := New(Config{Alpha: -1, PSIThreshold: -1})
	if err := noKS.Fit(ref); err != nil {
		t.Fatal(err)
	}
	rep, err := noKS.Check(shifted)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Drifted || len(rep.DriftedFeatures) != 0 {
		t.Errorf("both checks disabled, yet drifted=%v features=%v", rep.Drifted, rep.DriftedFeatures)
	}
	for _, f := range rep.Features {
		if f.Rejected {
			t.Errorf("feature %d rejected with both checks disabled", f.Index)
		}
	}

	// Negative MinFraction: a single rejecting feature drifts the window.
	sensitive := New(Config{MinFraction: -1})
	if err := sensitive.Fit(ref); err != nil {
		t.Fatal(err)
	}
	rep, err = sensitive.Check(gaussRows(300, 10, 2.0, []int{7}, 700))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Drifted {
		t.Error("MinFraction<0 should drift on a single rejecting feature")
	}

	// Zero values still select the documented defaults.
	def := New(Config{})
	if def.cfg.Alpha != 0.01 || def.cfg.MinFraction != 0.02 || def.cfg.PSIBins != 10 || def.cfg.PSIThreshold != 0.2 {
		t.Errorf("defaults not applied: %+v", def.cfg)
	}
	// Negative sentinels survive applyDefaults.
	kept := New(Config{Alpha: -1, MinFraction: -1, PSIThreshold: -1})
	if kept.cfg.Alpha >= 0 || kept.cfg.MinFraction >= 0 || kept.cfg.PSIThreshold >= 0 {
		t.Errorf("sentinels overwritten: %+v", kept.cfg)
	}
}

func TestDetectorRecordsMetrics(t *testing.T) {
	o := obs.New()
	det := New(Config{Obs: o})
	if err := det.Fit(gaussRows(1000, 5, 0, nil, 8)); err != nil {
		t.Fatal(err)
	}
	if _, err := det.Check(gaussRows(100, 5, 0, nil, 800)); err != nil {
		t.Fatal(err)
	}
	if _, err := det.Check(gaussRows(100, 5, 3.0, []int{0, 1, 2}, 801)); err != nil {
		t.Fatal(err)
	}
	if v, _ := o.Registry.Value(obs.MetricMonitorChecks); v != 2 {
		t.Errorf("checks counter = %v; want 2", v)
	}
	if v, _ := o.Registry.Value(obs.MetricMonitorDrifts); v != 1 {
		t.Errorf("drifts counter = %v; want 1", v)
	}
	if h := o.Registry.Histogram(obs.MetricMonitorKSStat, nil); h.Count() != 10 {
		t.Errorf("KS-stat observations = %d; want 10 (2 windows x 5 features)", h.Count())
	}
	// A ladder too narrow for the run would clamp its quantiles to the
	// top bound; every sample must land in a finite bucket instead.
	if over := overflowed(t, o.Registry); len(over) > 0 {
		t.Errorf("histograms with +Inf overflow samples:\n%s", strings.Join(over, "\n"))
	}
}

// overflowed lists the histogram series of r whose +Inf bucket holds
// samples: its cumulative count exceeds that of the last finite bucket.
func overflowed(t *testing.T, r *obs.Registry) []string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	var out []string
	prev := ""
	for _, line := range strings.Split(b.String(), "\n") {
		if !strings.Contains(line, "_bucket{") {
			continue
		}
		cum := line[strings.LastIndexByte(line, ' ')+1:]
		if strings.Contains(line, `le="+Inf"`) && cum != prev {
			out = append(out, line)
		}
		prev = cum
	}
	return out
}

func TestKSTwoSampleStatistic(t *testing.T) {
	// Identical samples: statistic 0. Disjoint samples: statistic 1.
	same := []float64{1, 2, 3, 4, 5}
	stat, _ := KSTwoSample(same, same)
	if stat != 0 {
		t.Errorf("identical samples: stat = %v; want 0", stat)
	}
	stat, p := KSTwoSample([]float64{1, 2, 3}, []float64{10, 11, 12})
	if stat != 1 {
		t.Errorf("disjoint samples: stat = %v; want 1", stat)
	}
	if p > 0.2 {
		t.Errorf("disjoint samples: p = %v; want small", p)
	}
}

// Satellite regression: malformed windows must fail with the typed
// sentinels, never panic or silently skew the statistics.
func TestCheckRejectsMalformedWindows(t *testing.T) {
	det := New(Config{})
	if err := det.Fit(gaussRows(100, 4, 0, nil, 42)); err != nil {
		t.Fatal(err)
	}
	clean := func() [][]float64 { return gaussRows(20, 4, 0, nil, 43) }

	t.Run("NaN", func(t *testing.T) {
		w := clean()
		w[7][2] = math.NaN()
		if _, err := det.Check(w); !errors.Is(err, ErrNonFinite) {
			t.Fatalf("Check(NaN window) = %v, want ErrNonFinite", err)
		}
	})
	t.Run("Inf", func(t *testing.T) {
		w := clean()
		w[3][0] = math.Inf(-1)
		if _, err := det.Check(w); !errors.Is(err, ErrNonFinite) {
			t.Fatalf("Check(Inf window) = %v, want ErrNonFinite", err)
		}
	})
	t.Run("NarrowRow", func(t *testing.T) {
		w := clean()
		w[5] = w[5][:2]
		if _, err := det.Check(w); !errors.Is(err, ErrRowWidth) {
			t.Fatalf("Check(narrow row) = %v, want ErrRowWidth", err)
		}
	})
	t.Run("WideRow", func(t *testing.T) {
		w := clean()
		w[5] = append(append([]float64(nil), w[5]...), 1.0)
		if _, err := det.Check(w); !errors.Is(err, ErrRowWidth) {
			t.Fatalf("Check(wide row) = %v, want ErrRowWidth", err)
		}
	})
	t.Run("CleanStillWorks", func(t *testing.T) {
		if _, err := det.Check(clean()); err != nil {
			t.Fatalf("Check(clean window) = %v", err)
		}
	})
}

func TestFitRejectsMalformedReference(t *testing.T) {
	ref := gaussRows(100, 4, 0, nil, 7)
	ref[11][1] = math.NaN()
	if err := New(Config{}).Fit(ref); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("Fit(NaN reference) = %v, want ErrNonFinite", err)
	}
	ref = gaussRows(100, 4, 0, nil, 8)
	ref[20] = ref[20][:3]
	if err := New(Config{}).Fit(ref); !errors.Is(err, ErrRowWidth) {
		t.Fatalf("Fit(ragged reference) = %v, want ErrRowWidth", err)
	}
}
