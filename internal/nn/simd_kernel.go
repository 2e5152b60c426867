package nn

import (
	"fmt"
	"math"
)

// Portable scalar kernels for the training and serving hot loops (the
// Dense tile kernels, BatchNorm forward/backward, the ReLU family, the
// 16-lane dot and the Adam update), plus the dispatch table that swaps in
// their AVX twins on capable amd64 hardware. The vector code uses only
// per-lane IEEE multiply/add/subtract/divide/square root (VMULPD/VADDPD/
// VSUBPD/VDIVPD/VSQRTPD and their scalar VEX forms) — never VFMADD* — so
// every kernel is bit-identical to its scalar twin here, pinned by the
// golden tests in simd_test.go. (Which NaN a NaN result carries is left
// to operand order, which the Go compiler picks; the goldens match any
// NaN with any NaN and every other value bit for bit.)
//
// The twins must not fuse either. Go may compile x*y + z into one fused
// multiply-add on arm64, ppc64le and s390x, which skips the product's
// rounding; an explicit float64(x*y) conversion forces the rounding (Go
// spec, "Floating-point operators"), so every product that feeds an
// addition or subtraction is written that way, here and everywhere else
// in the package. CI builds the package for arm64 and fails on any fused
// instruction.
//
// The reductions, vdot and vdotRows, cannot match a plain sequential
// accumulation under lane-parallel SIMD, so their DEFINITION is a fixed
// 16-lane scheme both twins implement (see vdotGo). The scheme is fixed by
// the kernel, not by the hardware, so results are identical on every
// platform and at every worker count. The losses sum their terms
// sequentially in Go (loss.go), so no loss reduction needs a lane scheme.

// The kernel widths the dispatch table can bind: the Go twins, the 256-bit
// AVX set, and the AVX set with 512-bit twins of the Dense tile kernels
// and Adam.
const (
	widthGo = iota
	width256
	width512
)

// widthNames names the kernel widths in KernelWidths and SetKernelWidth.
var widthNames = [...]string{widthGo: "go", width256: "avx", width512: "avx512"}

// boundWidth is the kernel set the dispatch table currently holds.
var boundWidth = widthGo

// KernelWidths lists the kernel sets this host can bind, widest first:
// "avx512" and "avx" where the CPU has them, then "go", the portable twins,
// which is the only set off amd64. Every set computes the same bits; the
// list lets tests pin the sets against each other and benchmarks time them.
func KernelWidths() []string {
	names := make([]string, 0, hostWidth+1)
	for w := hostWidth; w >= widthGo; w-- {
		names = append(names, widthNames[w])
	}
	return names
}

// SetKernelWidth binds the named kernel set, one of KernelWidths, and
// returns the name of the set bound before the call, so
//
//	defer nn.SetKernelWidth(nn.SetKernelWidth("go"))
//
// runs the rest of a test on the Go twins. It is for tests and benchmarks
// only: the dispatch table is package state, so calling it while a network
// trains or infers races with that work. A name KernelWidths does not list
// panics.
func SetKernelWidth(name string) string {
	for w := widthGo; w <= hostWidth; w++ {
		if widthNames[w] == name {
			prev := boundWidth
			bindKernels(w)
			boundWidth = w
			return widthNames[prev]
		}
	}
	panic(fmt.Sprintf("nn: kernel width %q is not one of %v", name, KernelWidths()))
}

// The dispatch table: amd64 binds the widest vector set the CPU supports
// at init (see simd_amd64.go); everywhere else the Go twins stay bound.
// SetKernelWidth flips the binding at runtime for tests and benchmarks.
var (
	axpy1      func(v float64, w, o []float64)                                                           = axpy1Go
	skipGemm   func(acc []float64, lda int, x []float64, rx, sx int, v []float64, sv, rows, cols, n int) = skipGemmGo
	vdotRows   func(gi []float64, ldi int, g, w []float64, rows, in, n int)                              = vdotRowsGo
	adamUpdate func(p, g, m, v []float64, k *adamCoef)                                                   = adamGo
	vadd       func(dst, x []float64)                                                                    = vaddGo
	vmulAdd    func(dst, a, b []float64)                                                                 = vmulAddGo
	vsqDiffAdd func(dst, x, m []float64)                                                                 = vsqDiffAddGo
	vdivs      func(x []float64, s float64)                                                              = vdivsGo
	vbnNorm    func(xh, x, mean, std []float64)                                                          = vbnNormGo
	vbnAffine  func(o, xh, gamma, beta []float64)                                                        = vbnAffineGo
	vbnBack    func(gi, g, xh, coef, sumG, sumGX []float64, nf float64)                                  = vbnBackGo
	vreluFwd   func(dst, x []float64)                                                                    = vreluFwdGo
	vlreluFwd  func(dst, x []float64, alpha float64)                                                     = vlreluFwdGo
	vlreluBwd  func(gi, g, x []float64, alpha float64)                                                   = vlreluBwdGo
	vdot       func(a, b []float64) float64                                                              = vdotGo
	vscale     func(dst, x []float64, s float64)                                                         = vscaleGo
)

// Axpy is the rank-1 row update o[k] += v*w[k] for k < len(o), adding
// each rounded product to its element in place; w must be at least as
// long as o. It runs the bound kernel set's axpy1, so its bits are the Go
// twin's at every width. It has no zero skip: a ±0 v still adds its ±0 or
// NaN products. Packages outside nn (mat's dense algebra, the alignment
// baselines) share it so their loops vectorize without a second kernel.
func Axpy(v float64, w, o []float64) { axpy1(v, w, o) }

// axpy1Go is the single-row rank-1 update o[k] += v*w[k] — the gate's
// accumulations, the single-output Dense weight gradient and Axpy.
func axpy1Go(v float64, w, o []float64) {
	w = w[:len(o)]
	for k, wk := range w {
		o[k] += float64(v * wk)
	}
}

// skipGemmGo is the Dense tile kernel's definition, shared by the forward
// and the weight gradient:
//
//	acc[r*lda+k] += x[r*rx+t*sx] * v[t*sv+k]
//
// for r < rows and k < cols, adding the terms of each element in ascending
// t and skipping every term whose x is ±0. The skip is part of the
// definition, not an optimization: the skipped term x·v is NaN, not zero,
// when v is NaN or ±Inf, and would turn an accumulator of -0 into +0.
// The forward runs it with acc = output rows (pre-filled with the bias),
// x = input rows (rx = In, sx = 1) and v = the weight rows; the weight
// gradient with acc = the weight-gradient rows, x = the transposed input
// (rx = 1, sx = In) and v = the output-gradient rows, so each weight
// gradient sums its batch rows in ascending order.
func skipGemmGo(acc []float64, lda int, x []float64, rx, sx int, v []float64, sv, rows, cols, n int) {
	for r := 0; r < rows; r++ {
		a := acc[r*lda : r*lda+cols]
		for t := 0; t < n; t++ {
			xv := x[r*rx+t*sx]
			if xv == 0 {
				continue
			}
			vt := v[t*sv : t*sv+cols]
			for k, vk := range vt {
				a[k] += float64(xv * vk)
			}
		}
	}
}

// vdotRowsGo is the Dense input gradient: gi[i*ldi+j] = vdot(g[i*n:(i+1)*n],
// w[j*n:(j+1)*n]) for i < rows and j < in — every gradient row against
// every weight row, each dot in vdot's fixed 16-lane scheme.
func vdotRowsGo(gi []float64, ldi int, g, w []float64, rows, in, n int) {
	for i := 0; i < rows; i++ {
		gr := g[i*n : (i+1)*n]
		o := gi[i*ldi : i*ldi+in]
		for j := range o {
			o[j] = vdotGo(gr, w[j*n:(j+1)*n])
		}
	}
}

// adamCoef carries one Adam step's per-parameter constants to the update
// kernel; the field order is the AVX kernel's memory layout.
type adamCoef struct {
	b1, c1   float64 // β1 and 1-β1
	b2, c2   float64 // β2 and 1-β2
	bc1, bc2 float64 // bias corrections 1-β1^t and 1-β2^t
	lr, eps  float64
	wd       float64
	decay    bool // wd != 0: add wd·p to the gradient
}

// adamGo is the Adam element update:
//
//	g' = g + wd·p (when decaying)
//	m  = β1·m + (1-β1)·g'
//	v  = β2·v + ((1-β2)·g')·g'
//	p  = p - (lr·(m/bc1)) / (√(v/bc2) + ε)
func adamGo(p, g, m, v []float64, k *adamCoef) {
	g = g[:len(p)]
	m = m[:len(p)]
	v = v[:len(p)]
	for i := range p {
		gi := g[i]
		if k.decay {
			gi += float64(k.wd * p[i])
		}
		m[i] = float64(k.b1*m[i]) + float64(k.c1*gi)
		v[i] = float64(k.b2*v[i]) + float64(float64(k.c2*gi)*gi)
		mHat := m[i] / k.bc1
		vHat := v[i] / k.bc2
		p[i] -= float64(k.lr*mHat) / (math.Sqrt(vHat) + k.eps)
	}
}

// vaddGo accumulates dst[i] += x[i] — BatchNorm column sums, bias
// gradients, and the fixed-shape gradient tree reduction.
func vaddGo(dst, x []float64) {
	x = x[:len(dst)]
	for i, v := range x {
		dst[i] += v
	}
}

// vmulAddGo accumulates dst[i] += a[i]*b[i] (one rounding per op, no FMA).
func vmulAddGo(dst, a, b []float64) {
	a = a[:len(dst)]
	b = b[:len(dst)]
	for i := range dst {
		dst[i] += float64(a[i] * b[i])
	}
}

// vsqDiffAddGo accumulates dst[i] += (x[i]-m[i])² — the BatchNorm variance
// pass.
func vsqDiffAddGo(dst, x, m []float64) {
	x = x[:len(dst)]
	m = m[:len(dst)]
	for i := range dst {
		d := x[i] - m[i]
		dst[i] += float64(d * d)
	}
}

// vdivsGo divides in place: x[i] /= s (true IEEE division, not a
// reciprocal multiply — bit-compatible with the scalar statistics loops).
func vdivsGo(x []float64, s float64) {
	for i := range x {
		x[i] /= s
	}
}

// vbnNormGo writes xh[i] = (x[i]-mean[i]) / std[i].
func vbnNormGo(xh, x, mean, std []float64) {
	x = x[:len(xh)]
	mean = mean[:len(xh)]
	std = std[:len(xh)]
	for i := range xh {
		xh[i] = (x[i] - mean[i]) / std[i]
	}
}

// vbnAffineGo writes o[i] = float64(gamma[i]*xh[i]) + beta[i].
func vbnAffineGo(o, xh, gamma, beta []float64) {
	xh = xh[:len(o)]
	gamma = gamma[:len(o)]
	beta = beta[:len(o)]
	for i := range o {
		o[i] = float64(gamma[i]*xh[i]) + beta[i]
	}
}

// vbnBackGo writes the batch-norm input gradient for one row:
// gi[i] = coef[i] * (float64(nf*g[i]) - sumG[i] - float64(xh[i]*sumGX[i])), with
// coef[i] = gamma[i]/(nf*std[i]) hoisted once per batch by the caller
// (the hoist reuses the identical per-element arithmetic, so bits match
// the historical per-row recomputation).
func vbnBackGo(gi, g, xh, coef, sumG, sumGX []float64, nf float64) {
	g = g[:len(gi)]
	xh = xh[:len(gi)]
	coef = coef[:len(gi)]
	sumG = sumG[:len(gi)]
	sumGX = sumGX[:len(gi)]
	for i := range gi {
		gi[i] = coef[i] * (float64(nf*g[i]) - sumG[i] - float64(xh[i]*sumGX[i]))
	}
}

// vreluFwdGo is elementwise max(x, 0) with MAXPD's exact corner semantics
// (SRC1 = +0, SRC2 = x: returns x for -0 and NaN inputs), which coincide
// with the historical scalar `if x < 0 { 0 } else { x }`.
func vreluFwdGo(dst, x []float64) {
	x = x[:len(dst)]
	for i, v := range x {
		if v < 0 {
			dst[i] = 0
		} else {
			dst[i] = v
		}
	}
}

// vlreluFwdGo is the leaky variant: x < 0 ? alpha*x : x. Note alpha=0 is
// NOT ReLU bitwise (0*x is -0 for negative x); ReLU has its own kernel.
func vlreluFwdGo(dst, x []float64, alpha float64) {
	x = x[:len(dst)]
	for i, v := range x {
		if v < 0 {
			dst[i] = alpha * v
		} else {
			dst[i] = v
		}
	}
}

// vlreluBwdGo routes gradients through the (leaky) ReLU derivative:
// gi[i] = g[i] * (x[i] < 0 ? alpha : 1). With alpha=0 this IS the ReLU
// backward: g*0 keeps g's sign on the zero, exactly like the scalar path.
func vlreluBwdGo(gi, g, x []float64, alpha float64) {
	g = g[:len(gi)]
	x = x[:len(gi)]
	for i := range gi {
		f := 1.0
		if x[i] < 0 {
			f = alpha
		}
		gi[i] = g[i] * f
	}
}

// vdotGo is the fixed 16-lane dot product — the Dense backward
// input-gradient kernel, the hottest reduction in training. It keeps 16
// independent accumulators (four vector registers in the AVX twin) so
// neither implementation serializes on a single addition dependency chain. The scheme is fixed by this contract,
// not by hardware: lane k accumulates elements i ≡ k (mod 16) in index
// order; lanes fold as f[k] = (l[k]+l[k+8]) + (l[k+4]+l[k+12]) for
// k < 4, then (f0+f2) + (f1+f3); the < 16 remainder is added sequentially
// after the fold.
func vdotGo(a, b []float64) float64 {
	b = b[:len(a)]
	var l [16]float64
	i := 0
	for ; i+16 <= len(a); i += 16 {
		l[0] += float64(a[i] * b[i])
		l[1] += float64(a[i+1] * b[i+1])
		l[2] += float64(a[i+2] * b[i+2])
		l[3] += float64(a[i+3] * b[i+3])
		l[4] += float64(a[i+4] * b[i+4])
		l[5] += float64(a[i+5] * b[i+5])
		l[6] += float64(a[i+6] * b[i+6])
		l[7] += float64(a[i+7] * b[i+7])
		l[8] += float64(a[i+8] * b[i+8])
		l[9] += float64(a[i+9] * b[i+9])
		l[10] += float64(a[i+10] * b[i+10])
		l[11] += float64(a[i+11] * b[i+11])
		l[12] += float64(a[i+12] * b[i+12])
		l[13] += float64(a[i+13] * b[i+13])
		l[14] += float64(a[i+14] * b[i+14])
		l[15] += float64(a[i+15] * b[i+15])
	}
	f0 := (l[0] + l[8]) + (l[4] + l[12])
	f1 := (l[1] + l[9]) + (l[5] + l[13])
	f2 := (l[2] + l[10]) + (l[6] + l[14])
	f3 := (l[3] + l[11]) + (l[7] + l[15])
	s := (f0 + f2) + (f1 + f3)
	for ; i < len(a); i++ {
		s += float64(a[i] * b[i])
	}
	return s
}

// vscaleGo overwrites dst[i] = s·x[i] — the Dense backward input gradient
// for single-output layers (the discriminator head), where the row gradient
// is one scalar times the weight column.
func vscaleGo(dst, x []float64, s float64) {
	x = x[:len(dst)]
	for i, v := range x {
		dst[i] = s * v
	}
}
