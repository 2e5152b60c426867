package nn

import (
	"math"
	"math/rand"
	"testing"
)

// feedSource is a rand.Source that replays vals in a loop and counts the
// draws taken from it.
type feedSource struct {
	vals  []int64
	draws int
}

func (s *feedSource) Int63() int64 {
	v := s.vals[s.draws%len(s.vals)]
	s.draws++
	return v
}

func (s *feedSource) Seed(int64) {}

// refDropoutMask is the keep/drop decision ForwardT made before it compared
// Int63 draws: one rng.Float64() >= p per unit.
func refDropoutMask(rng *rand.Rand, p float64, n int) []bool {
	keep := make([]bool, n)
	for i := range keep {
		keep[i] = rng.Float64() >= p
	}
	return keep
}

// dropoutInput is n values with ±0 and ±Inf among them.
func dropoutInput(rng *rand.Rand, n int) *Tensor {
	x := NewTensor(1, n)
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1)}
	for i := range x.data {
		if i < len(special) {
			x.data[i] = special[i]
		} else {
			x.data[i] = rng.NormFloat64()
		}
	}
	return x
}

// checkDropout compares a ForwardT mask and output with the decisions
// keep: survivors hold scale and v·scale, dropped units +0 in both.
func checkDropout(t *testing.T, name string, d *Dropout, x, out *Tensor, keep []bool) {
	t.Helper()
	scale := 1 / (1 - d.P)
	for i, k := range keep {
		wantMask, wantOut := 0.0, 0.0
		if k {
			wantMask, wantOut = scale, x.data[i]*scale
		}
		if math.Float64bits(d.mask.data[i]) != math.Float64bits(wantMask) ||
			math.Float64bits(out.data[i]) != math.Float64bits(wantOut) {
			t.Fatalf("%s: unit %d (keep=%v): mask %v out %v, want %v and %v",
				name, i, k, d.mask.data[i], out.data[i], wantMask, wantOut)
		}
	}
}

// TestDropoutDrawGolden pins ForwardT's integer keep test to
// rng.Float64() >= P: at the boundary draws T−1 and T of keepThreshold,
// and 2⁶³−2⁹−1 and 2⁶³−2⁹ around Float64's redraw, the same decisions
// and the same number of draws; then over a seeded million-draw stream,
// the same mask and output bits and the same stream position after.
func TestDropoutDrawGolden(t *testing.T) {
	if f := float64(float64Redraw) / (1 << 63); f != 1 {
		t.Fatalf("float64Redraw/2⁶³ = %v, want 1", f)
	}
	if f := float64(float64Redraw-1) / (1 << 63); f >= 1 {
		t.Fatalf("(float64Redraw-1)/2⁶³ = %v, want < 1", f)
	}
	ps := []float64{1e-300, 0.1, 0.3, 0.5, 0.9, math.Nextafter(1, 0)}
	for _, p := range ps {
		th := keepThreshold(p)
		if th < 1 || th > float64Redraw {
			t.Fatalf("p=%v: keepThreshold = %d out of range", p, th)
		}
		if float64(th)/(1<<63) < p || float64(th-1)/(1<<63) >= p {
			t.Fatalf("p=%v: keepThreshold %d is not the first kept draw", p, th)
		}
		vals := []int64{th - 1, th, float64Redraw - 1, float64Redraw, math.MaxInt64,
			float64Redraw, 0, th + 1, th - 1, 1, th}
		n := 2 * len(vals)
		refSrc := &feedSource{vals: vals}
		keep := refDropoutMask(rand.New(refSrc), p, n)
		src := &feedSource{vals: vals}
		d := NewDropout(p, rand.New(src))
		x := dropoutInput(rand.New(rand.NewSource(1)), n)
		out := d.ForwardT(x)
		checkDropout(t, "boundary draws", d, x, out, keep)
		if src.draws != refSrc.draws {
			t.Fatalf("p=%v: ForwardT took %d draws, Float64 %d", p, src.draws, refSrc.draws)
		}
	}

	const n = 1 << 20
	for i, p := range []float64{0.1, 0.3} {
		seed := int64(40 + i)
		ref := rand.New(rand.NewSource(seed))
		keep := refDropoutMask(ref, p, n)
		rng := rand.New(rand.NewSource(seed))
		d := NewDropout(p, rng)
		x := dropoutInput(rand.New(rand.NewSource(seed)), n)
		checkDropout(t, "seeded stream", d, x, d.ForwardT(x), keep)
		if a, b := rng.Int63(), ref.Int63(); a != b {
			t.Fatalf("p=%v: stream position differs after the mask: next draw %d vs %d", p, a, b)
		}
	}
}

// BenchmarkDropoutForwardT times one training-mode dropout forward over a
// 64×256 batch, the GAN's hidden-layer shape, at the drop rates the
// classifiers and the GAN use:
//
//	go test -run '^$' -bench DropoutForwardT ./internal/nn
func BenchmarkDropoutForwardT(b *testing.B) {
	for _, p := range []struct {
		name string
		p    float64
	}{{"p=0.1", 0.1}, {"p=0.3", 0.3}} {
		b.Run(p.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x := denseBenchInput(rng, 64, 256, 0)
			d := NewDropout(p.p, rng)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.ForwardT(x)
			}
		})
	}
}
