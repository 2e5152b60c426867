package nn

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestBackwardWindowGolden pins BackwardWindow against the full BackwardT
// on a Dense layer (the single-output definition and the degenerate
// narrow-input case included), a SkipConcat, and whole networks shaped
// like the GAN's generator (skip concatenation over batch norm) and
// discriminator (leaky ReLU and dropout). For the windows [0,0), a middle
// block and [0,In), every parameter gradient, the batch-norm running
// statistics and the dropout masks must be bit-identical to the full
// backward's, and the window's columns of the returned input gradient must
// equal the full gradient's bit for bit. Each case runs two batches per
// window so stale scratch outside one window cannot leak into the next.
func TestBackwardWindowGolden(t *testing.T) {
	cases := []struct {
		name   string
		in     int // input columns fed to the layer
		build  func(rng *rand.Rand) Layer
		values func(rng *rand.Rand, n, d int) [][]float64
	}{
		{"dense 13x7", 13, func(rng *rand.Rand) Layer { return NewDense(13, 7, rng) }, specialRows},
		{"dense 40x20", 40, func(rng *rand.Rand) Layer { return NewDense(40, 20, rng) }, specialRows},
		{"dense 13x1", 13, func(rng *rand.Rand) Layer { return NewDense(13, 1, rng) }, specialRows},
		{"dense 8x5 narrow input", 5, func(rng *rand.Rand) Layer { return NewDense(8, 5, rng) }, specialRows},
		{"dense 8x1 narrow input", 5, func(rng *rand.Rand) Layer { return NewDense(8, 1, rng) }, specialRows},
		{"skip concat", 6, func(rng *rand.Rand) Layer {
			return NewSkipConcat(NewNetwork(NewDense(6, 9, rng), NewReLU()))
		}, specialRows},
		{"generator network", 10, func(rng *rand.Rand) Layer {
			trunk := NewNetwork(
				NewDense(10, 16, rng), NewBatchNorm(16), NewReLU(),
				NewDense(16, 16, rng), NewBatchNorm(16), NewReLU(),
			)
			return NewNetwork(NewSkipConcat(trunk), NewDense(26, 4, rng), NewTanh())
		}, randRows},
		{"discriminator network", 10, func(rng *rand.Rand) Layer {
			return NewNetwork(
				NewDense(10, 16, rng), NewLeakyReLU(0.2), NewDropout(0.3, rng),
				NewDense(16, 16, rng), NewLeakyReLU(0.2), NewDropout(0.3, rng),
				NewDense(16, 1, rng),
			)
		}, randRows},
	}
	const rows = 7
	for _, c := range cases {
		for _, win := range [][2]int{{0, 0}, {c.in / 3, 2 * c.in / 3}, {0, c.in}} {
			lo, hi := win[0], win[1]
			name := fmt.Sprintf("%s window [%d,%d)", c.name, lo, hi)
			full, part := c.build(rand.New(rand.NewSource(3))), c.build(rand.New(rand.NewSource(3)))
			data := rand.New(rand.NewSource(4))
			for batch := 0; batch < 2; batch++ {
				x := rowsT(c.values(data, rows, c.in))
				out := full.ForwardT(x, true)
				if !sameFloats(part.ForwardT(x, true).Data(), out.Data()) {
					t.Fatalf("%s: the two copies' forwards differ", name)
				}
				g := rowsT(c.values(data, rows, out.Cols()))
				ZeroGrads(full.Params())
				ZeroGrads(part.Params())
				want := full.BackwardT(g).ToRows()
				got := BackwardWindow(part, g, lo, hi)
				for i, w := range want {
					if !sameFloats(got.Row(i)[lo:hi], w[lo:hi]) {
						t.Fatalf("%s batch %d: input gradient row %d differs in the window", name, batch, i)
					}
				}
				sameLayerState(t, fmt.Sprintf("%s batch %d", name, batch), full, part)
			}
		}
	}
}

// sameLayerState fails unless the two identically built layer trees hold
// bit-identical parameter gradients, batch-norm running statistics and
// dropout masks.
func sameLayerState(t *testing.T, name string, a, b Layer) {
	t.Helper()
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		if !sameFloats(pb[i].Grad, pa[i].Grad) {
			t.Fatalf("%s: gradient of %s differs", name, pa[i].Name)
		}
	}
	sa, sb := TakeSnapshot(a), TakeSnapshot(b)
	for i := range sa.Extra {
		for j := range sa.Extra[i] {
			if !sameFloats(sb.Extra[i][j], sa.Extra[i][j]) {
				t.Fatalf("%s: batch-norm state %d.%d differs", name, i, j)
			}
		}
	}
	var da, db []*Dropout
	walkLayers(a, func(l Layer) {
		if d, ok := l.(*Dropout); ok {
			da = append(da, d)
		}
	})
	walkLayers(b, func(l Layer) {
		if d, ok := l.(*Dropout); ok {
			db = append(db, d)
		}
	})
	for i := range da {
		if da[i].hasMask != db[i].hasMask || !sameFloats(db[i].mask.data, da[i].mask.data) {
			t.Fatalf("%s: dropout %d mask differs", name, i)
		}
	}
}
