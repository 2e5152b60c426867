package nn

import (
	"fmt"
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

// forEachWidth binds, in turn, every kernel width the host has, widest
// first, runs f at each, restores the binding it found, and logs which
// widths ran: on a host without AVX-512 (or without AVX) the missing sets
// cannot run, and the log says so. With twins false it skips the Go twins,
// for tests that compare each vector set against them, unless the twins
// are the only set.
func forEachWidth(t *testing.T, twins bool, f func(width string)) {
	t.Helper()
	widths := KernelWidths()
	if !twins && len(widths) > 1 {
		widths = widths[:len(widths)-1]
	}
	defer SetKernelWidth(SetKernelWidth(widths[0]))
	for _, w := range widths {
		SetKernelWidth(w)
		f(w)
	}
	logWidths(t, widths)
}

// logWidths logs the kernel widths a test ran and, when the host has no
// AVX-512, that the 512-bit kernels did not run.
func logWidths(t *testing.T, ran []string) {
	t.Helper()
	t.Logf("kernel widths run: %v (host widest: %s)", ran, KernelWidths()[0])
	if KernelWidths()[0] != "avx512" {
		t.Logf("AVX-512 absent on this host: the 512-bit kernels did not run")
	}
}

// TestVectorKernelsGolden pins every dispatched kernel bitwise against its
// portable Go twin across sizes covering all tail lengths and corner values
// (-0.0, NaN, exact zeros), at every vector width the host has (the AVX
// set, and the AVX-512 set with its own Adam), so the widths are pinned
// against each other through the twins. On hardware without AVX both
// sides run the same Go code and the test degenerates to a self-check.
func TestVectorKernelsGolden(t *testing.T) {
	forEachWidth(t, false, func(w string) {
		vectorKernelsGolden(t, w)
	})
}

func vectorKernelsGolden(t *testing.T, width string) {
	rng := rand.New(rand.NewSource(42))
	bitsEqual := func(t *testing.T, name string, got, want []float64) {
		t.Helper()
		bitsEqual(t, width+" "+name, got, want)
	}

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
		bitEqualScalar(t, width+" vdot", n, vdot(xr, yr), vdotGo(xr, yr))

		// adamUpdate, with and without weight decay, on finite state (the
		// optimizer's domain) that includes zero gradients and parameters.
		for _, wd := range []float64{0, 1e-6} {
			k := adamCoef{b1: 0.9, c1: 1 - 0.9, b2: 0.999, c2: 1 - 0.999,
				bc1: 1 - math.Pow(0.9, 3), bc2: 1 - math.Pow(0.999, 3),
				lr: 1e-3, eps: 1e-8, wd: wd, decay: wd != 0}
			pa, pb := append([]float64(nil), xr...), append([]float64(nil), xr...)
			ma, mb := append([]float64(nil), yr...), append([]float64(nil), yr...)
			// Zero second moments, as at the first step, leave each new
			// v the bare ((1-β2)·g)·g, so its rounding shows.
			va, vb := make([]float64, n), make([]float64, n)
			for i := 1; i < n; i += 2 {
				va[i] = pos[i]
				vb[i] = pos[i]
			}
			adamUpdate(pa, yr, ma, va, &k)
			adamGo(pb, yr, mb, vb, &k)
			bitsEqual(t, "adam p", pa, pb)
			bitsEqual(t, "adam m", ma, mb)
			bitsEqual(t, "adam v", va, vb)
		}
	}
}

// TestAxpyKernelsMatchPortable pins the dispatched axpy1 (AVX when the
// host supports it) against the portable Go twin bit for bit, across
// vector-width tails and negative/zero/subnormal-ish values.
func TestAxpyKernelsMatchPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	fill := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			switch rng.Intn(8) {
			case 0:
				s[i] = 0
			case 1:
				s[i] = 1e-300 * rng.NormFloat64()
			default:
				s[i] = rng.NormFloat64()
			}
		}
		return s
	}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 50, 256, 678} {
		w := fill(n)
		got, want := fill(n), make([]float64, n)
		copy(want, got)
		v := rng.NormFloat64()
		axpy1(v, w, got)
		axpy1Go(v, w, want)
		bitsEqual(t, fmt.Sprintf("axpy1 n=%d", n), got, want)
	}
}

// TestDenseTileKernelsGolden pins the Dense tile kernels — skipGemm in
// both of its orientations and the row-blocked vdotRows — against their
// Go twins at every vector width the host has, over shapes that hit every
// stripe width and column tail (the AVX-512 set's 64-column stripe and
// its 1-63-column remainders included), the 3-row blocks of the AVX
// vdotRows and the 6-row blocks of the AVX-512 one with their 1-5-row
// tails, and the 256-step runs of skipGemm, with ±0, NaN and ±Inf in
// every operand. Results must match bit for bit except for NaN payloads
// (see sameFloats).
func TestDenseTileKernelsGolden(t *testing.T) {
	forEachWidth(t, false, func(w string) {
		rng := rand.New(rand.NewSource(5))
		for _, rows := range []int{1, 3, 4, 5, 64, 65} {
			for _, cols := range []int{1, 2, 3, 4, 6, 7, 8, 9, 12, 16, 19, 32, 52, 63, 64, 100, 256} {
				for _, n := range []int{1, 2, 9, 255, 256, 257, 600} {
					if rows*cols*n > 1<<21 {
						continue
					}
					denseTileGolden(t, rng, fmt.Sprintf("%s rows=%d cols=%d n=%d", w, rows, cols, n), rows, cols, n)
				}
			}
		}
		// Every row-block tail: 6-13 rows, at dot lengths around the
		// 16-lane chunk.
		for rows := 6; rows <= 13; rows++ {
			for _, cols := range []int{1, 15, 16, 17, 52} {
				denseTileGolden(t, rng, fmt.Sprintf("%s rows=%d cols=%d n=9", w, rows, cols), rows, cols, 9)
			}
		}
		// Every stripe cover of up to two 64-column stripes and a remainder.
		for cols := 1; cols <= 130; cols++ {
			denseTileGolden(t, rng, fmt.Sprintf("%s rows=2 cols=%d n=9", w, cols), 2, cols, 9)
		}
	})
}

// denseTileGolden runs the tile kernels once at one shape against their Go
// twins.
func denseTileGolden(t *testing.T, rng *rand.Rand, name string, rows, cols, n int) {
	t.Helper()
	flat := func(n, d int) []float64 {
		var out []float64
		for _, r := range specialRows(rng, n, d) {
			out = append(out, r...)
		}
		return out
	}
	acc := flat(rows, cols)
	v := flat(n, cols)

	// Forward orientation: x rows of n steps.
	x := flat(rows, n)
	got := append([]float64(nil), acc...)
	want := append([]float64(nil), acc...)
	skipGemm(got, cols, x, n, 1, v, cols, rows, cols, n)
	skipGemmGo(want, cols, x, n, 1, v, cols, rows, cols, n)
	if !sameFloats(got, want) {
		t.Fatalf("skipGemm forward %s: differs from its Go twin", name)
	}

	// Weight-gradient orientation: x is n×rows, read by column.
	xt := flat(n, rows)
	got = append(got[:0], acc...)
	want = append(want[:0], acc...)
	skipGemm(got, cols, xt, 1, rows, v, cols, rows, cols, n)
	skipGemmGo(want, cols, xt, 1, rows, v, cols, rows, cols, n)
	if !sameFloats(got, want) {
		t.Fatalf("skipGemm weight gradient %s: differs from its Go twin", name)
	}

	// vdotRows: rows gradient rows of width cols against n weight rows,
	// into a gi with a wider row stride.
	g := flat(rows, cols)
	w := flat(n, cols)
	gi, giGo := make([]float64, rows*(n+2)), make([]float64, rows*(n+2))
	vdotRows(gi, n+2, g, w, rows, n, cols)
	vdotRowsGo(giGo, n+2, g, w, rows, n, cols)
	if !sameFloats(gi, giGo) {
		t.Fatalf("vdotRows %s: differs from its Go twin", name)
	}
}

// TestSetKernelWidthToggle checks the width selector round-trips and that
// the dispatch table follows it: KernelWidths lists the host's sets widest
// first and ends at the Go twins, each SetKernelWidth reports the set bound
// before it, the twins bound make axpy1 the Go twin, and a set the host
// lacks panics instead of binding something else.
func TestSetKernelWidthToggle(t *testing.T) {
	widths := KernelWidths()
	if widths[len(widths)-1] != "go" {
		t.Fatalf("KernelWidths() = %v, want the Go twins last", widths)
	}
	initial := SetKernelWidth("go")
	defer SetKernelWidth(initial)
	if initial != widths[0] {
		t.Fatalf("bound width at start = %s, want the host widest %s", initial, widths[0])
	}
	if prev := SetKernelWidth("go"); prev != "go" {
		t.Fatalf("SetKernelWidth(go) after go reported prev=%s", prev)
	}

	// Twin-bound axpy still produces the contract results.
	rng := rand.New(rand.NewSource(7))
	w := positiveInput(rng, 37)
	o1 := make([]float64, 37)
	o2 := make([]float64, 37)
	axpy1(1.5, w, o1)
	axpy1Go(1.5, w, o2)
	bitsEqual(t, "axpy1 twin-bound", o1, o2)

	prev := "go"
	for _, name := range widths {
		if got := SetKernelWidth(name); got != prev {
			t.Fatalf("SetKernelWidth(%s) reported prev=%s, want %s", name, got, prev)
		}
		prev = name
		for i := range o1 {
			o1[i] = 0
		}
		axpy1(1.5, w, o1)
		bitsEqual(t, "axpy1 at "+name, o1, o2)
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("SetKernelWidth of an unknown set did not panic")
			}
		}()
		SetKernelWidth("sse")
	}()
	if got := SetKernelWidth(initial); got != prev {
		t.Fatalf("a refused SetKernelWidth changed the binding to %s, want %s", got, prev)
	}
}
