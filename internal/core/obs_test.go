package core

import (
	"strings"
	"testing"

	"netdrift/internal/obs"
)

// TestObserverDoesNotPerturbResults pins the instrumentation contract: an
// attached Observer must not consume RNG or alter any arithmetic, so an
// instrumented run produces bit-identical outputs to a plain one.
func TestObserverDoesNotPerturbResults(t *testing.T) {
	src := driftToy(300, false, 11)
	tgt := driftToy(30, true, 12)
	test := driftToy(50, true, 13)

	fit := func(o *obs.Observer) *Adapter {
		ad := NewAdapter(AdapterConfig{
			Mode:  ModeFSRecon,
			Recon: ReconGAN,
			GAN:   GANConfig{Epochs: 8},
			Seed:  21,
			Obs:   o,
		})
		if err := ad.Fit(src, tgt); err != nil {
			t.Fatal(err)
		}
		return ad
	}

	observer := obs.New()
	plain := fit(nil)
	instrumented := fit(observer)

	plainOut, err := plain.TransformTarget(test.X)
	if err != nil {
		t.Fatal(err)
	}
	obsOut, err := instrumented.TransformTarget(test.X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plainOut {
		for j := range plainOut[i] {
			if plainOut[i][j] != obsOut[i][j] {
				t.Fatalf("row %d col %d: instrumented %v != plain %v", i, j, obsOut[i][j], plainOut[i][j])
			}
		}
	}

	// And the observer must actually have seen the run.
	reg := observer.Registry
	if epochs, _ := reg.Value(obs.MetricTrainEpochs, "model", "GAN"); epochs != 8 {
		t.Errorf("train epochs = %v; want 8", epochs)
	}
	if fits, _ := reg.Value(obs.MetricTrainFits, "model", "GAN"); fits != 1 {
		t.Errorf("train fits = %v; want 1", fits)
	}
	if marg, _ := reg.Value(obs.MetricCITests, "kind", "marginal"); marg == 0 {
		t.Error("no marginal CI tests recorded")
	}
	if h := reg.Histogram(obs.MetricAdapterFitSeconds, nil); h.Count() != 1 {
		t.Errorf("adapter fit timer count = %d; want 1", h.Count())
	}
	if rows, _ := reg.Value(obs.MetricTransformRows); rows != float64(len(test.X)) {
		t.Errorf("transform rows = %v; want %d", rows, len(test.X))
	}
	if conv := reg.Histogram(obs.MetricConvergedEpoch, nil, "model", "GAN"); conv.Count() != 1 {
		t.Errorf("converged-epoch count = %d; want 1", conv.Count())
	} else if m := conv.Sum() / float64(conv.Count()); m < 1 || m > 8 {
		t.Errorf("converged epoch = %v; want within [1, 8]", m)
	}
	// A ladder too narrow for the run would clamp its quantiles to the
	// top bound; every sample must land in a finite bucket instead.
	if over := overflowed(t, reg); len(over) > 0 {
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
