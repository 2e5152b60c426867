//go:build amd64

package nn

// simdActive reports whether the AVX kernel set is currently bound.
// Initialized from the CPUID probe; SetVectorKernels flips it together
// with the dispatch table so the axpy fast paths stay consistent with
// the rest of the kernels.
var simdActive = hasAVX

// The AVX routines live in simd_amd64.s. Same no-FMA contract as the
// dense axpy kernels: per-lane VMULPD/VADDPD/VSUBPD/VDIVPD plus scalar
// VEX tails, bit-identical to the Go twins in simd_kernel.go.

//go:noescape
func vaddavx(dst, x *float64, n int)

//go:noescape
func vmuladdavx(dst, a, b *float64, n int)

//go:noescape
func vsqdiffavx(dst, x, m *float64, n int)

//go:noescape
func vdivsavx(x *float64, s float64, n int)

//go:noescape
func vbnnormavx(xh, x, mean, std *float64, n int)

//go:noescape
func vbnaffineavx(o, xh, gamma, beta *float64, n int)

//go:noescape
func vbnbackavx(gi, grad, xh, coef, sumG, sumGX *float64, nf float64, n int)

//go:noescape
func vreluavx(dst, x *float64, n int)

//go:noescape
func vlreluavx(dst, x *float64, alpha float64, n int)

//go:noescape
func vlrelubwdavx(gi, grad, x *float64, alpha float64, n int)

//go:noescape
func vdotavx(a, b *float64, n int) float64

//go:noescape
func vscaleavx(dst, x *float64, s float64, n int)

// Slice wrappers. All kernels take equal-length slices (the length of the
// first operand is the element count, as in the Go twins).

func vaddAVX(dst, x []float64) {
	if len(dst) == 0 {
		return
	}
	vaddavx(&dst[0], &x[0], len(dst))
}

func vmulAddAVX(dst, a, b []float64) {
	if len(dst) == 0 {
		return
	}
	vmuladdavx(&dst[0], &a[0], &b[0], len(dst))
}

func vsqDiffAddAVX(dst, x, m []float64) {
	if len(dst) == 0 {
		return
	}
	vsqdiffavx(&dst[0], &x[0], &m[0], len(dst))
}

func vdivsAVX(x []float64, s float64) {
	if len(x) == 0 {
		return
	}
	vdivsavx(&x[0], s, len(x))
}

func vbnNormAVX(xh, x, mean, std []float64) {
	if len(xh) == 0 {
		return
	}
	vbnnormavx(&xh[0], &x[0], &mean[0], &std[0], len(xh))
}

func vbnAffineAVX(o, xh, gamma, beta []float64) {
	if len(o) == 0 {
		return
	}
	vbnaffineavx(&o[0], &xh[0], &gamma[0], &beta[0], len(o))
}

func vbnBackAVX(gi, g, xh, coef, sumG, sumGX []float64, nf float64) {
	if len(gi) == 0 {
		return
	}
	vbnbackavx(&gi[0], &g[0], &xh[0], &coef[0], &sumG[0], &sumGX[0], nf, len(gi))
}

func vreluFwdAVX(dst, x []float64) {
	if len(dst) == 0 {
		return
	}
	vreluavx(&dst[0], &x[0], len(dst))
}

func vlreluFwdAVX(dst, x []float64, alpha float64) {
	if len(dst) == 0 {
		return
	}
	vlreluavx(&dst[0], &x[0], alpha, len(dst))
}

func vlreluBwdAVX(gi, g, x []float64, alpha float64) {
	if len(gi) == 0 {
		return
	}
	vlrelubwdavx(&gi[0], &g[0], &x[0], alpha, len(gi))
}

func vdotAVX(a, b []float64) float64 {
	if len(a) == 0 {
		return 0
	}
	return vdotavx(&a[0], &b[0], len(a))
}

func vscaleAVX(dst, x []float64, s float64) {
	if len(dst) == 0 {
		return
	}
	vscaleavx(&dst[0], &x[0], s, len(dst))
}

func bindGoKernels() {
	vadd = vaddGo
	vmulAdd = vmulAddGo
	vsqDiffAdd = vsqDiffAddGo
	vdivs = vdivsGo
	vbnNorm = vbnNormGo
	vbnAffine = vbnAffineGo
	vbnBack = vbnBackGo
	vreluFwd = vreluFwdGo
	vlreluFwd = vlreluFwdGo
	vlreluBwd = vlreluBwdGo
	vdot = vdotGo
	vscale = vscaleGo
}

func bindAVXKernels() {
	vadd = vaddAVX
	vmulAdd = vmulAddAVX
	vsqDiffAdd = vsqDiffAddAVX
	vdivs = vdivsAVX
	vbnNorm = vbnNormAVX
	vbnAffine = vbnAffineAVX
	vbnBack = vbnBackAVX
	vreluFwd = vreluFwdAVX
	vlreluFwd = vlreluFwdAVX
	vlreluBwd = vlreluBwdAVX
	vdot = vdotAVX
	vscale = vscaleAVX
}

// SetVectorKernels binds the AVX kernel set (on=true, when the hardware
// supports it) or the portable Go twins (on=false), and returns whether
// the AVX set was bound BEFORE the call. Because both sets are bit-identical
// the toggle never changes results — it exists so benchmarks and the
// driftbench gan_epoch stage can measure scalar-vs-vector honestly. Not
// safe to call concurrently with running training; flip it between runs.
func SetVectorKernels(on bool) bool {
	prev := simdActive
	simdActive = on && hasAVX
	if simdActive {
		bindAVXKernels()
	} else {
		bindGoKernels()
	}
	return prev
}

func init() {
	if hasAVX {
		bindAVXKernels()
	}
}
