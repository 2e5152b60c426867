// Unit-cost benchmarks behind the paper's evaluation (§VI): the per-sample
// adaptation cost and one classifier fit per family, the cost every
// Table I cell pays four times. The tables themselves come from
// cmd/driftbench -exp, and the per-layer and end-to-end costs (FS search,
// GAN epoch, adapt per row) from the benchmark module under bench/.
//
// Run them with:
//
//	go test -run '^$' -bench . -benchmem
package netdrift_test

import (
	"math/rand"
	"testing"
	"time"

	"netdrift/internal/core"
	"netdrift/internal/experiments"
	"netdrift/internal/models"
)

// benchSeed keeps every benchmark deterministic run-to-run.
const benchSeed = 1

// BenchmarkInference_PerSample measures the per-sample alignment cost: one
// generator pass per target sample (paper §VI-D: ~0.05 s/sample on their
// hardware; the point is that inference is a single feed-forward pass).
func BenchmarkInference_PerSample(b *testing.B) {
	pair, err := experiments.MakePair("5gipc", experiments.BenchScale, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	support, _, err := pair.TargetTrain.FewShot(10, true, rand.New(rand.NewSource(benchSeed)))
	if err != nil {
		b.Fatal(err)
	}
	ad := core.NewAdapter(core.AdapterConfig{
		Mode:  core.ModeFSRecon,
		Recon: core.ReconGAN,
		GAN:   core.GANConfig{Epochs: 10},
		Seed:  benchSeed,
	})
	if err := ad.Fit(pair.Source, support); err != nil {
		b.Fatal(err)
	}
	rows := pair.TargetTest.X[:200]
	start := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ad.TransformTarget(rows); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if b.N > 0 {
		perSample := time.Since(start).Seconds() / float64(b.N*len(rows))
		b.ReportMetric(perSample*1e6, "µs/sample")
	}
}

// BenchmarkClassifierFits measures one training run of each classifier
// family at BenchScale, the unit cost behind every Table I cell.
func BenchmarkClassifierFits(b *testing.B) {
	pair, err := experiments.MakePair("5gc", experiments.BenchScale, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	for _, kind := range models.AllKinds() {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				clf, err := models.New(kind, models.Options{
					Seed:   benchSeed,
					Epochs: experiments.BenchScale.ClassifierEpochs,
					Trees:  experiments.BenchScale.Trees,
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := clf.Fit(pair.Source.X, pair.Source.Y, 16); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
