package nn

import (
	"math/rand"
	"testing"
)

// denseBenchShapes are the Dense layers of the 5GC conditional GAN at the
// fit-5gc geometry (390 invariant features, 29 noise dimensions, 52 variant
// features, 16 classes, hidden 256, batch 64). zeros is the share of exact
// zero inputs the layer sees in training: none after the data and noise,
// half after ReLU, 30% after dropout.
var denseBenchShapes = []struct {
	name    string
	in, out int
	zeros   float64
}{
	{"gen1_419x256", 419, 256, 0},
	{"gen2_256x256", 256, 256, 0.5},
	{"genhead_675x52", 675, 52, 0.2},
	{"disc1_458x256", 458, 256, 0},
	{"disc2_256x256", 256, 256, 0.3},
	{"dischead_256x1", 256, 1, 0.3},
}

const denseBenchRows = 64

func denseBenchInput(rng *rand.Rand, rows, cols int, zeros float64) *Tensor {
	x := NewTensor(rows, cols)
	for i := range x.Data() {
		if rng.Float64() >= zeros {
			x.Data()[i] = rng.NormFloat64()
		}
	}
	return x
}

// benchWidths runs f as one sub-benchmark per kernel width the host can
// bind (avx512, avx, go), restoring the binding it found.
func benchWidths(b *testing.B, f func(b *testing.B)) {
	widths := KernelWidths()
	defer SetKernelWidth(SetKernelWidth(widths[0]))
	for _, w := range widths {
		b.Run(w, func(b *testing.B) {
			SetKernelWidth(w)
			f(b)
		})
	}
}

// BenchmarkDenseForwardT times one training-mode Dense forward over a
// 64-row batch at each 5GC GAN layer shape and each kernel width:
//
//	go test -run '^$' -bench DenseForwardT ./internal/nn
func BenchmarkDenseForwardT(b *testing.B) {
	for _, s := range denseBenchShapes {
		b.Run(s.name, func(b *testing.B) {
			benchWidths(b, func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				d := NewDense(s.in, s.out, rng)
				x := denseBenchInput(rng, denseBenchRows, s.in, s.zeros)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					d.ForwardT(x, true)
				}
			})
		})
	}
}

// BenchmarkDenseBackwardT times one Dense backward (input, weight and bias
// gradients) over a 64-row batch at each 5GC GAN layer shape and each
// kernel width.
func BenchmarkDenseBackwardT(b *testing.B) {
	for _, s := range denseBenchShapes {
		b.Run(s.name, func(b *testing.B) {
			benchWidths(b, func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				d := NewDense(s.in, s.out, rng)
				x := denseBenchInput(rng, denseBenchRows, s.in, s.zeros)
				g := denseBenchInput(rng, denseBenchRows, s.out, 0)
				d.ForwardT(x, true)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					d.BackwardT(g)
				}
			})
		})
	}
}
