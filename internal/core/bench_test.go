package core

import (
	"fmt"
	"math/rand"
	"testing"

	"netdrift/internal/dataset"
)

// benchBlocks synthesizes an invariant/variant split with a weak linear
// relationship so one GAN epoch does representative work.
func benchBlocks(n, dInv, dVar int, seed int64) (inv, vr [][]float64, y []int) {
	rng := rand.New(rand.NewSource(seed))
	inv = make([][]float64, n)
	vr = make([][]float64, n)
	y = make([]int, n)
	for i := 0; i < n; i++ {
		inv[i] = make([]float64, dInv)
		for j := range inv[i] {
			inv[i][j] = rng.NormFloat64()
		}
		vr[i] = make([]float64, dVar)
		for j := range vr[i] {
			vr[i][j] = 0.5*inv[i][j%dInv] + 0.3*rng.NormFloat64()
		}
		y[i] = i % 4
	}
	return inv, vr, y
}

// benchGANEpochs times one-epoch, one-shard Fits of cfg at Workers 1 (the
// sequential path) and 2 (the kernels split across a two-member team), one
// sub-benchmark each; the trained bits are the same at both.
func benchGANEpochs(b *testing.B, cfg GANConfig, inv, vr [][]float64, y []int, classes int) {
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := cfg
				c.Epochs, c.Seed, c.Workers = 1, int64(i)+1, workers
				if err := NewCGAN(c).Fit(inv, vr, y, classes); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGANEpoch times one conditional-GAN training epoch — the
// dominant cost of Adapter.Fit in ModeFSRecon:
//
//	go test -bench GANEpoch -benchtime 1x ./internal/core
func BenchmarkGANEpoch(b *testing.B) {
	inv, vr, y := benchBlocks(512, 24, 12, 1)
	benchGANEpochs(b, GANConfig{}, inv, vr, y, 4)
}

// BenchmarkGANEpoch5GC times one conditional-GAN epoch at the fit-5gc
// quick geometry: 320 source rows, 390 invariant and 52 variant features,
// 16 classes, so the generator is 419→256→256→52 and the discriminator
// 458→256→256→1 (hidden 256, 29 noise dimensions):
//
//	go test -run '^$' -bench GANEpoch5GC -benchtime 10x ./internal/core
func BenchmarkGANEpoch5GC(b *testing.B) {
	inv, vr, y := benchBlocks(320, 390, 52, 1)
	for i := range y {
		y[i] = i % 16
	}
	benchGANEpochs(b, GANConfig{Conditional: true}, inv, vr, y, 16)
}

// benchServeAdapter fits a full-width FS+GAN adapter on synthetic data
// shaped like the 5GC dataset (hundreds of mostly-invariant features) so
// the serving benchmarks below exercise the real generator geometry.
func benchServeAdapter(b *testing.B) (*Adapter, [][]float64) {
	rng := rand.New(rand.NewSource(1))
	const n, d = 500, 442
	mkRows := func(n int, drift float64) [][]float64 {
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = make([]float64, d)
			for j := range rows[i] {
				rows[i][j] = rng.NormFloat64()
				if j < 50 {
					rows[i][j] += drift
				}
			}
		}
		return rows
	}
	src := &dataset.Dataset{X: mkRows(n, 0), Y: make([]int, n)}
	sup := &dataset.Dataset{X: mkRows(40, 4), Y: make([]int, 40)}
	for i := range src.Y {
		src.Y[i] = i % 2
	}
	ad := NewAdapter(AdapterConfig{Mode: ModeFSRecon, Recon: ReconGAN, GAN: GANConfig{Epochs: 2}, Seed: 1})
	if err := ad.Fit(src, sup); err != nil {
		b.Fatal(err)
	}
	return ad, src.X[:32]
}

// BenchmarkAdaptBatch32 is the serving hot path: one AdaptBatch call over
// a 32-row micro-batch with scratch reuse (the coalescer's steady state).
func BenchmarkAdaptBatch32(b *testing.B) {
	ad, rows := benchServeAdapter(b)
	var scr AdaptScratch
	seeds := make([]int64, len(rows))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ad.AdaptBatch(rows, seeds, &scr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdaptPerRowLegacy serves the same 32 rows the pre-batching way:
// one TransformTarget call per row, the baseline BenchmarkAdaptBatch32 is
// read against (TestAdaptBatchMatchesTransformTarget pins both to the same
// bits).
func BenchmarkAdaptPerRowLegacy(b *testing.B) {
	ad, rows := benchServeAdapter(b)
	one := make([][]float64, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range rows {
			one[0] = r
			if _, err := ad.TransformTarget(one); err != nil {
				b.Fatal(err)
			}
		}
	}
}
