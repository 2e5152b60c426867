package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refFeatureGate is the allocating per-row scalar gate FeatureGate's flat
// path replaced, kept as its bit-level reference. It owns copies of the
// gate's parameters so the two accumulate gradients independently.
type refFeatureGate struct {
	dim, rank          int
	w1, w2, b          []float64
	gw1, gw2, gb       []float64
	input, sig, uCache [][]float64
}

func newRefFeatureGate(g *FeatureGate) *refFeatureGate {
	cp := func(s []float64) []float64 { return append([]float64(nil), s...) }
	return &refFeatureGate{
		dim: g.Dim, rank: g.Rank,
		w1: cp(g.w1.Data), w2: cp(g.w2.Data), b: cp(g.b.Data),
		gw1: make([]float64, len(g.w1.Data)), gw2: make([]float64, len(g.w2.Data)), gb: make([]float64, len(g.b.Data)),
	}
}

func (g *refFeatureGate) forward(x [][]float64) [][]float64 {
	g.input = x
	g.sig = make([][]float64, len(x))
	g.uCache = make([][]float64, len(x))
	out := make([][]float64, len(x))
	for i, row := range x {
		u := make([]float64, g.rank)
		for j, v := range row {
			if v == 0 {
				continue
			}
			for m := 0; m < g.rank; m++ {
				u[m] += g.w1[m*g.dim+j] * v
			}
		}
		z := make([]float64, g.dim)
		copy(z, g.b)
		for k := 0; k < g.dim; k++ {
			w2Row := g.w2[k*g.rank : (k+1)*g.rank]
			var s float64
			for m, um := range u {
				s += w2Row[m] * um
			}
			z[k] += s
		}
		s := make([]float64, g.dim)
		o := make([]float64, g.dim)
		for k := range z {
			s[k] = 1 / (1 + math.Exp(-z[k]))
			o[k] = row[k] * s[k]
		}
		g.uCache[i] = u
		g.sig[i] = s
		out[i] = o
	}
	return out
}

func (g *refFeatureGate) backward(gradOut [][]float64) [][]float64 {
	gradIn := make([][]float64, len(gradOut))
	for i, gRow := range gradOut {
		x := g.input[i]
		s := g.sig[i]
		u := g.uCache[i]
		dz := make([]float64, g.dim)
		for k := range dz {
			dz[k] = gRow[k] * x[k] * s[k] * (1 - s[k])
			g.gb[k] += dz[k]
		}
		du := make([]float64, g.rank)
		for k, dzk := range dz {
			if dzk == 0 {
				continue
			}
			w2Row := g.w2[k*g.rank : (k+1)*g.rank]
			gw2Row := g.gw2[k*g.rank : (k+1)*g.rank]
			for m := 0; m < g.rank; m++ {
				du[m] += dzk * w2Row[m]
				gw2Row[m] += dzk * u[m]
			}
		}
		gi := make([]float64, g.dim)
		for j := range gi {
			gi[j] = gRow[j] * s[j]
		}
		for m, dum := range du {
			if dum == 0 {
				continue
			}
			w1Row := g.w1[m*g.dim : (m+1)*g.dim]
			gw1Row := g.gw1[m*g.dim : (m+1)*g.dim]
			for j := 0; j < g.dim; j++ {
				gi[j] += dum * w1Row[j]
				gw1Row[j] += dum * x[j]
			}
		}
		gradIn[i] = gi
	}
	return gradIn
}

// gateBatch draws n rows of width d with exact zeros (both signs) mixed
// in, and every third row entirely zero so the u accumulator stays +0.
func gateBatch(rng *rand.Rand, n, d int) [][]float64 {
	x := randBatch(rng, n, d)
	for i, row := range x {
		for j := range row {
			switch {
			case i%3 == 2:
				row[j] = 0
			case rng.Intn(4) == 0:
				row[j] = 0
			case rng.Intn(16) == 0:
				row[j] = math.Copysign(0, -1)
			}
		}
	}
	return x
}

// TestFeatureGateMatchesReference pins the flat gate (ForwardT, BackwardT,
// InferT) bit for bit against the scalar reference: outputs, input
// gradients and the accumulated gradients of all three parameters, across
// widths around the 32-wide rank and the 4-lane kernels, batch sizes 1-65
// (growing and shrinking the scratch), at every kernel width the host has:
// vec=true runs each vector set as its own subtest, vec=false the Go twins.
// The weights move between batches, as an optimizer step would move them,
// so a stale transposed copy would show.
func TestFeatureGateMatchesReference(t *testing.T) {
	widths := KernelWidths()
	defer SetKernelWidth(SetKernelWidth(widths[0]))
	for _, vec := range []bool{true, false} {
		sets := widths[len(widths)-1:]
		if vec {
			sets = widths[:len(widths)-1]
		}
		for _, dim := range []int{1, 3, 31, 32, 33, 442} {
			t.Run(fmt.Sprintf("vec=%v/dim=%d", vec, dim), func(t *testing.T) {
				if len(sets) == 0 {
					t.Skip("no vector kernel set on this host")
				}
				for _, width := range sets {
					SetKernelWidth(width)
					t.Run(width, func(t *testing.T) {
						rng := rand.New(rand.NewSource(int64(dim)))
						gate := NewFeatureGate(dim, rng)
						ref := newRefFeatureGate(gate)
						var in, gOut Tensor
						var s InferScratch
						for step := 0; step < 65; step++ {
							// Batch sizes 1..65 in an order that grows and shrinks.
							n := (step*29)%65 + 1
							x := gateBatch(rng, n, dim)
							g := randBatch(rng, n, dim)
							g[0][0] = 0 // a zero dz row entry

							wantOut := ref.forward(x)
							got := gate.ForwardT(in.SetFromRows(x))
							inferred := Infer(gate, &in, &s)
							wantIn := ref.backward(g)
							gotIn := gate.BackwardT(gOut.SetFromRows(g))
							for i := range x {
								bitsEqual(t, fmt.Sprintf("n=%d out row %d", n, i), got.Row(i), wantOut[i])
								bitsEqual(t, fmt.Sprintf("n=%d infer row %d", n, i), inferred.Row(i), wantOut[i])
								bitsEqual(t, fmt.Sprintf("n=%d gradIn row %d", n, i), gotIn.Row(i), wantIn[i])
							}
							bitsEqual(t, "w1.grad", gate.w1.Grad, ref.gw1)
							bitsEqual(t, "w2.grad", gate.w2.Grad, ref.gw2)
							bitsEqual(t, "b.grad", gate.b.Grad, ref.gb)

							// Move the weights identically in both gates.
							for _, pair := range [][2][]float64{{gate.w1.Data, ref.w1}, {gate.w2.Data, ref.w2}, {gate.b.Data, ref.b}} {
								k := rng.Intn(len(pair[0]))
								v := pair[0][k] + 0.1*rng.NormFloat64()
								pair[0][k], pair[1][k] = v, v
							}
						}
					})
				}
			})
		}
	}
	logWidths(t, widths)
}
