package nn

import (
	"math"
	"math/rand"
	"testing"
)

// kernelSizes covers every 4-wide tail length (0..9) plus larger bodies so
// both the vector loop and the scalar tail of each asm routine execute.
var kernelSizes = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 31, 64, 129}

// kernelInput fills a slice with values that exercise the bit-level corner
// cases the kernels must preserve: negative zero, NaN, denormal-ish smalls,
// and ordinary positives/negatives.
func kernelInput(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		switch i % 7 {
		case 0:
			out[i] = math.Copysign(0, -1) // -0.0
		case 1:
			out[i] = 0
		case 2:
			out[i] = math.NaN()
		default:
			out[i] = (rng.Float64() - 0.5) * 200
		}
	}
	return out
}

// positiveInput is for divisors/std slices that must stay away from zero.
func positiveInput(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 0.5 + rng.Float64()
	}
	return out
}

func bitsEqual(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: index %d: got %x (%v), want %x (%v)",
				name, i, math.Float64bits(got[i]), got[i],
				math.Float64bits(want[i]), want[i])
		}
	}
}

func bitEqualScalar(t *testing.T, name string, n int, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: n=%d: got %x (%v), want %x (%v)",
			name, n, math.Float64bits(got), got, math.Float64bits(want), want)
	}
}

// TestVectorKernelsGolden pins every dispatched kernel bitwise against its
// portable Go twin across sizes covering all tail lengths and corner values
// (-0.0, NaN, exact zeros). On hardware without AVX both sides run the same
// Go code and the test degenerates to a self-check.
func TestVectorKernelsGolden(t *testing.T) {
	if !SetVectorKernels(true) && !SetVectorKernels(true) {
		t.Log("AVX unavailable; golden test runs scalar-vs-scalar")
	}
	defer SetVectorKernels(true)
	rng := rand.New(rand.NewSource(42))

	for _, n := range kernelSizes {
		x := kernelInput(rng, n)
		y := kernelInput(rng, n)
		z := kernelInput(rng, n)
		pos := positiveInput(rng, n)
		nf := float64(max(n, 1))

		// vadd
		a, b := append([]float64(nil), x...), append([]float64(nil), x...)
		vadd(a, y)
		vaddGo(b, y)
		bitsEqual(t, "vadd", a, b)

		// vmulAdd
		a, b = append([]float64(nil), x...), append([]float64(nil), x...)
		vmulAdd(a, y, z)
		vmulAddGo(b, y, z)
		bitsEqual(t, "vmulAdd", a, b)

		// vsqDiffAdd
		a, b = append([]float64(nil), x...), append([]float64(nil), x...)
		vsqDiffAdd(a, y, z)
		vsqDiffAddGo(b, y, z)
		bitsEqual(t, "vsqDiffAdd", a, b)

		// vdivs
		a, b = append([]float64(nil), x...), append([]float64(nil), x...)
		vdivs(a, 3.7)
		vdivsGo(b, 3.7)
		bitsEqual(t, "vdivs", a, b)

		// vbnNorm
		a, b = make([]float64, n), make([]float64, n)
		vbnNorm(a, x, y, pos)
		vbnNormGo(b, x, y, pos)
		bitsEqual(t, "vbnNorm", a, b)

		// vbnAffine
		vbnAffine(a, x, y, z)
		vbnAffineGo(b, x, y, z)
		bitsEqual(t, "vbnAffine", a, b)

		// vbnBack
		vbnBack(a, x, y, pos, z, x, nf)
		vbnBackGo(b, x, y, pos, z, x, nf)
		bitsEqual(t, "vbnBack", a, b)

		// vreluFwd — must keep -0.0 and NaN as-is and zero only true negatives.
		vreluFwd(a, x)
		vreluFwdGo(b, x)
		bitsEqual(t, "vreluFwd", a, b)
		for i, v := range x {
			if v < 0 && a[i] != 0 {
				t.Fatalf("vreluFwd: negative input %v survived as %v", v, a[i])
			}
		}

		// vlreluFwd
		vlreluFwd(a, x, 0.2)
		vlreluFwdGo(b, x, 0.2)
		bitsEqual(t, "vlreluFwd", a, b)

		// vscale — -0.0 products (s=0 on negatives) must round-trip exactly.
		vscale(a, x, -1.5)
		vscaleGo(b, x, -1.5)
		bitsEqual(t, "vscale", a, b)

		// vlreluBwd at the LeakyReLU slope and at alpha=0 (the ReLU backward).
		for _, alpha := range []float64{0.2, 0} {
			vlreluBwd(a, y, x, alpha)
			vlreluBwdGo(b, y, x, alpha)
			bitsEqual(t, "vlreluBwd", a, b)
		}

		// The vdot reduction: NaN-free inputs so a single bit pattern is
		// well-defined, but keep -0.0 and zeros in play.
		xr := make([]float64, n)
		yr := make([]float64, n)
		for i := range xr {
			xr[i] = (rng.Float64() - 0.5) * 8
			yr[i] = (rng.Float64() - 0.5) * 8
			if i%5 == 0 {
				xr[i] = math.Copysign(0, -1)
			}
		}
		bitEqualScalar(t, "vdot", n, vdot(xr, yr), vdotGo(xr, yr))
	}
}

// TestSetVectorKernelsToggle checks the toggle round-trips and that the axpy
// fast path follows it: with kernels off, axpy1 must match axpy1Go exactly
// (trivially true — it IS axpy1Go then) and flipping back on must restore
// the prior state's report.
func TestSetVectorKernelsToggle(t *testing.T) {
	initial := SetVectorKernels(true) // capture whether AVX binds at all
	defer SetVectorKernels(initial)

	prev := SetVectorKernels(false)
	if prev != initial {
		t.Fatalf("SetVectorKernels(false) reported prev=%v, want %v", prev, initial)
	}
	if SetVectorKernels(false) {
		t.Fatal("kernels report active immediately after disabling")
	}

	// Scalar-bound axpy and kernels still produce the contract results.
	rng := rand.New(rand.NewSource(7))
	w := positiveInput(rng, 37)
	o1 := make([]float64, 37)
	o2 := make([]float64, 37)
	axpy1(1.5, w, o1)
	axpy1Go(1.5, w, o2)
	bitsEqual(t, "axpy1 scalar-bound", o1, o2)

	on := SetVectorKernels(true)
	if on {
		t.Fatal("SetVectorKernels(true) reported prev=true after disable")
	}
	for i := range o1 {
		o1[i] = 0
	}
	axpy1(1.5, w, o1)
	bitsEqual(t, "axpy1 after re-enable", o1, o2)
}
