package nn

// Portable scalar kernels for the training hot loops (Dense backward,
// BatchNorm forward/backward and the ReLU family),
// plus the dispatch table that swaps in their AVX twins on capable amd64
// hardware. The same no-FMA contract as the dense axpy kernels applies:
// the vector code uses only per-lane IEEE multiply/add/subtract/divide
// (VMULPD/VADDPD/VSUBPD/VDIVPD and their scalar VEX forms) — never
// VFMADD* — so every kernel is bit-identical to its scalar twin here,
// pinned by the golden tests in simd_test.go.
//
// The one reduction, vdot, cannot match a plain sequential accumulation
// under lane-parallel SIMD, so its DEFINITION is a fixed 16-lane scheme
// both twins implement (see its comment). The scheme is fixed by the
// kernel, not by the hardware, so results are identical on every platform
// and at every worker count. The losses sum their terms sequentially in Go
// (loss.go), so no loss reduction needs a lane scheme.

// The dispatch table: amd64 binds the AVX implementations at init when the
// CPU supports them (see simd_amd64.go); everywhere else the Go twins stay
// bound. SetVectorKernels flips the binding at runtime for benchmarks.
var (
	vadd       func(dst, x []float64)                                   = vaddGo
	vmulAdd    func(dst, a, b []float64)                                = vmulAddGo
	vsqDiffAdd func(dst, x, m []float64)                                = vsqDiffAddGo
	vdivs      func(x []float64, s float64)                             = vdivsGo
	vbnNorm    func(xh, x, mean, std []float64)                         = vbnNormGo
	vbnAffine  func(o, xh, gamma, beta []float64)                       = vbnAffineGo
	vbnBack    func(gi, g, xh, coef, sumG, sumGX []float64, nf float64) = vbnBackGo
	vreluFwd   func(dst, x []float64)                                   = vreluFwdGo
	vlreluFwd  func(dst, x []float64, alpha float64)                    = vlreluFwdGo
	vlreluBwd  func(gi, g, x []float64, alpha float64)                  = vlreluBwdGo
	vdot       func(a, b []float64) float64                             = vdotGo
	vscale     func(dst, x []float64, s float64)                        = vscaleGo
)

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
		dst[i] += a[i] * b[i]
	}
}

// vsqDiffAddGo accumulates dst[i] += (x[i]-m[i])² — the BatchNorm variance
// pass.
func vsqDiffAddGo(dst, x, m []float64) {
	x = x[:len(dst)]
	m = m[:len(dst)]
	for i := range dst {
		d := x[i] - m[i]
		dst[i] += d * d
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

// vbnAffineGo writes o[i] = gamma[i]*xh[i] + beta[i].
func vbnAffineGo(o, xh, gamma, beta []float64) {
	xh = xh[:len(o)]
	gamma = gamma[:len(o)]
	beta = beta[:len(o)]
	for i := range o {
		o[i] = gamma[i]*xh[i] + beta[i]
	}
}

// vbnBackGo writes the batch-norm input gradient for one row:
// gi[i] = coef[i] * (nf*g[i] - sumG[i] - xh[i]*sumGX[i]), with
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
		gi[i] = coef[i] * (nf*g[i] - sumG[i] - xh[i]*sumGX[i])
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
		l[0] += a[i] * b[i]
		l[1] += a[i+1] * b[i+1]
		l[2] += a[i+2] * b[i+2]
		l[3] += a[i+3] * b[i+3]
		l[4] += a[i+4] * b[i+4]
		l[5] += a[i+5] * b[i+5]
		l[6] += a[i+6] * b[i+6]
		l[7] += a[i+7] * b[i+7]
		l[8] += a[i+8] * b[i+8]
		l[9] += a[i+9] * b[i+9]
		l[10] += a[i+10] * b[i+10]
		l[11] += a[i+11] * b[i+11]
		l[12] += a[i+12] * b[i+12]
		l[13] += a[i+13] * b[i+13]
		l[14] += a[i+14] * b[i+14]
		l[15] += a[i+15] * b[i+15]
	}
	f0 := (l[0] + l[8]) + (l[4] + l[12])
	f1 := (l[1] + l[9]) + (l[5] + l[13])
	f2 := (l[2] + l[10]) + (l[6] + l[14])
	f3 := (l[3] + l[11]) + (l[7] + l[15])
	s := (f0 + f2) + (f1 + f3)
	for ; i < len(a); i++ {
		s += a[i] * b[i]
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
