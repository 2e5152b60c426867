package nn

import (
	"fmt"
	"math/rand"
	"strings"
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
// equal the full gradient's bit for bit. The frozen rows run the same
// windows through BackwardFrozen on the cases without batch norm: every
// parameter gradient (the single-output head's included) must keep the
// value it held before the call, bit for bit, while the window's
// input-gradient columns and the other layer state match the unfrozen
// call's. Each case runs two batches per window so stale scratch outside
// one window cannot leak into the next. The feature-gate cases (a gate
// alone, below and above its rank of 32, and TNet's gate-then-dense head)
// run at every kernel width, since the gate's products are the dispatched
// skipGemm; the gate cannot run frozen.
func TestBackwardWindowGolden(t *testing.T) {
	cases := []windowCase{
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
	for _, c := range cases {
		checkWindowCase(t, c)
	}
	gates := []windowCase{
		{"feature gate 7", 7, func(rng *rand.Rand) Layer { return NewFeatureGate(7, rng) }, gateBatch},
		{"feature gate 45", 45, func(rng *rand.Rand) Layer { return NewFeatureGate(45, rng) }, gateBatch},
		{"gated network", 40, func(rng *rand.Rand) Layer {
			return NewNetwork(NewFeatureGate(40, rng), NewDense(40, 12, rng), NewReLU(), NewDense(12, 3, rng))
		}, gateBatch},
	}
	forEachWidth(t, true, func(width string) {
		for _, c := range gates {
			c.name += " at " + width
			checkWindowCase(t, c)
		}
	})
}

// windowCase is one layer TestBackwardWindowGolden checks.
type windowCase struct {
	name   string
	in     int // input columns fed to the layer
	build  func(rng *rand.Rand) Layer
	values func(rng *rand.Rand, n, d int) [][]float64
}

// checkWindowCase runs TestBackwardWindowGolden's checks on one case.
func checkWindowCase(t *testing.T, c windowCase) {
	t.Helper()
	const rows = 7
	for _, win := range [][2]int{{0, 0}, {c.in / 3, 2 * c.in / 3}, {0, c.in}} {
		lo, hi := win[0], win[1]
		name := fmt.Sprintf("%s window [%d,%d)", c.name, lo, hi)
		full, part, frozen := c.build(rand.New(rand.NewSource(3))), c.build(rand.New(rand.NewSource(3))), c.build(rand.New(rand.NewSource(3)))
		data := rand.New(rand.NewSource(4))
		for batch := 0; batch < 2; batch++ {
			x := rowsT(c.values(data, rows, c.in))
			out := full.ForwardT(x)
			if !sameFloats(part.ForwardT(x).Data(), out.Data()) ||
				!sameFloats(frozen.ForwardT(x).Data(), out.Data()) {
				t.Fatalf("%s: the copies' forwards differ", name)
			}
			g := rowsT(c.values(data, rows, out.Cols()))
			ZeroGrads(full.Params())
			ZeroGrads(part.Params())
			var held [][]float64
			for _, p := range frozen.Params() {
				for i := range p.Grad {
					p.Grad[i] = data.NormFloat64()
				}
				held = append(held, append([]float64(nil), p.Grad...))
			}
			want := full.BackwardT(g).ToRows()
			got := BackwardWindow(part, g, lo, hi)
			for i, w := range want {
				if !sameFloats(got.Row(i)[lo:hi], w[lo:hi]) {
					t.Fatalf("%s batch %d: input gradient row %d differs in the window", name, batch, i)
				}
			}
			sameLayerState(t, fmt.Sprintf("%s batch %d", name, batch), full, part)
			if unfreezable(frozen) {
				continue // batch norm and the gate cannot skip their gradients
			}
			gotFrozen := BackwardFrozen(frozen, g, lo, hi)
			for i, w := range want {
				if !sameFloats(gotFrozen.Row(i)[lo:hi], w[lo:hi]) {
					t.Fatalf("%s batch %d: frozen input gradient row %d differs in the window", name, batch, i)
				}
			}
			for i, p := range frozen.Params() {
				if !sameFloats(p.Grad, held[i]) {
					t.Fatalf("%s batch %d: frozen backward changed the gradient of %s", name, batch, p.Name)
				}
			}
			sameStats(t, fmt.Sprintf("%s batch %d frozen", name, batch), full, frozen)
		}
	}
}

// unfreezable reports whether the layer tree contains a batch norm or a
// feature gate, the layers that cannot skip their parameter gradients.
func unfreezable(root Layer) bool {
	found := false
	walkLayers(root, func(l Layer) {
		switch l.(type) {
		case *BatchNorm, *FeatureGate:
			found = true
		}
	})
	return found
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
	sameStats(t, name, a, b)
}

// sameStats fails unless the two identically built layer trees hold
// bit-identical batch-norm running statistics and dropout masks.
func sameStats(t *testing.T, name string, a, b Layer) {
	t.Helper()
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

// TestBackwardFrozenRefusesUnfreezableLayer pins BackwardFrozen's failure
// mode: a layer with parameters that cannot skip their gradients (a batch
// norm, which does not narrow, and a feature gate, which does) panics
// rather than accumulating into them.
func TestBackwardFrozenRefusesUnfreezableLayer(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, net := range []Layer{
		NewNetwork(NewDense(4, 6, rng), NewBatchNorm(6)),
		NewNetwork(NewDense(4, 6, rng), NewFeatureGate(6, rng)),
		NewFeatureGate(6, rng),
	} {
		in := 4
		if _, ok := net.(*FeatureGate); ok {
			in = 6
		}
		g := rowsT(randRows(rng, 3, 6))
		net.ForwardT(rowsT(randRows(rng, 3, in)))
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "cannot run a frozen backward") {
					t.Fatalf("%T: panic %q, want the frozen-backward refusal", net, msg)
				}
			}()
			BackwardFrozen(net, g, 0, 0)
		}()
	}
}
