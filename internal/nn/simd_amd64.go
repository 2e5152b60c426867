//go:build amd64

package nn

// hostWidth is the widest kernel set the hardware supports, from the one
// CPUID gate: AVX needs the CPU feature flag and OS support for saving YMM
// state (OSXSAVE + XGETBV); AVX-512F also needs the OS to save the opmask
// and full ZMM state.
var hostWidth = func() int {
	switch avx, avx512 := cpuFeatures(); {
	case avx512:
		return width512
	case avx:
		return width256
	}
	return widthGo
}()

// The vector routines live in simd_amd64.s. No-FMA contract: per-lane
// VMULPD/VADDPD/VSUBPD/VDIVPD/VSQRTPD plus scalar VEX tails, bit-identical
// to the Go twins in simd_kernel.go at both vector widths.

func cpuFeatures() (avx, avx512 bool)

//go:noescape
func axpy1avx(v float64, w, o *float64, n int)

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

//go:noescape
func skiprow32avx(acc, x *float64, sx int, lst *int32, cnt int, v *float64, sv int)

//go:noescape
func skiprow16avx(acc, x *float64, sx int, lst *int32, cnt int, v *float64, sv int)

//go:noescape
func skiprow8avx(acc, x *float64, sx int, lst *int32, cnt int, v *float64, sv int)

//go:noescape
func skiprow4avx(acc, x *float64, sx int, lst *int32, cnt int, v *float64, sv int)

//go:noescape
func skiprowmaskavx(acc, x *float64, sx int, lst *int32, cnt int, v *float64, sv int, mask *int64)

//go:noescape
func vdot3avx(gi *float64, ldi int, grad, w *float64, in, n int)

//go:noescape
func adamavx(p, grad, m, v *float64, k *adamCoef, n int)

//go:noescape
func skiprow64avx512(acc, x *float64, sx int, lst *int32, cnt int, v *float64, sv int)

//go:noescape
func vdot6avx512(gi *float64, ldi int, grad, w *float64, in, n int)

//go:noescape
func adamavx512(p, grad, m, v *float64, k *adamCoef, n int)

// Slice wrappers. All kernels take equal-length slices (the length of the
// first operand is the element count, as in the Go twins).

func axpy1AVX(v float64, w, o []float64) {
	if len(o) == 0 {
		return
	}
	w = w[:len(o)]
	axpy1avx(v, &w[0], &o[0], len(o))
}

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

// skipGemmAVX runs skipGemm's definition through the skiprow kernels, one
// acc row at a time, in stripes of at most 32 columns (see skipGemmStripes).
func skipGemmAVX(acc []float64, lda int, x []float64, rx, sx int, v []float64, sv, rows, cols, n int) {
	skipGemmStripes(32, acc, lda, x, rx, sx, v, sv, rows, cols, n)
}

// skipGemmAVX512 is skipGemmAVX with 64-column ZMM stripes; the 1-63
// columns left over run through the AVX stripes.
func skipGemmAVX512(acc []float64, lda int, x []float64, rx, sx int, v []float64, sv, rows, cols, n int) {
	skipGemmStripes(64, acc, lda, x, rx, sx, v, sv, rows, cols, n)
}

// skipGemmStripes runs skipGemm's definition through the skiprow kernels,
// one acc row at a time. For each run of up to skipSteps reduction steps it
// first lists the steps whose x is nonzero (branch-free), so the zero skip
// costs no arithmetic; each column stripe (top wide while the columns
// last, then halving down to 4, then a masked stripe for the last 1-3
// columns) then runs the list through one kernel with the stripe of acc
// held in registers. Runs go in ascending t and the accumulators
// round-trip exactly through acc between them, so every element adds its
// terms in t order whichever run and stripe cover it.
//
// The kernels read v in place. Packing each stripe's v columns into a
// contiguous panel first (Goto and van de Geijn) gained at most 8% at 64
// rows and was about 2x slower at 4 rows, where copying v costs as much as
// the arithmetic it feeds.
func skipGemmStripes(top int, acc []float64, lda int, x []float64, rx, sx int, v []float64, sv, rows, cols, n int) {
	if rows == 0 || cols == 0 || n == 0 {
		return
	}
	// One bounds check up front for everything the kernels touch.
	_ = acc[(rows-1)*lda+cols-1]
	_ = x[(rows-1)*rx+(n-1)*sx]
	_ = v[(n-1)*sv+cols-1]
	var lst [skipSteps]int32
	for r := 0; r < rows; r++ {
		for t0 := 0; t0 < n; t0 += skipSteps {
			nt := min(skipSteps, n-t0)
			xr := x[r*rx+t0*sx:]
			cnt := skipList(lst[:nt], xr, sx)
			if cnt == 0 {
				continue
			}
			for c := 0; c < cols; {
				w := top
				for w > cols-c && w > 4 {
					w /= 2
				}
				w = min(w, cols-c)
				skipRow(w, &acc[r*lda+c], &xr[0], sx, &lst[0], cnt, &v[t0*sv+c], sv)
				c += w
			}
		}
	}
}

// skipSteps bounds one run's term list (1 KB on the stack).
const skipSteps = 256

// skipList writes the steps t < len(lst) whose x[t*sx] is nonzero to the
// front of lst in ascending order and returns their count. The store is
// unconditional and only the count depends on x, so the loop compiles
// without a data-dependent branch.
func skipList(lst []int32, x []float64, sx int) int {
	c := 0
	for t := range lst {
		lst[c] = int32(t)
		if x[t*sx] != 0 {
			c++
		}
	}
	return c
}

// skipRow runs the skiprow kernel for a w-column stripe, w one of 64, 32,
// 16, 8 and 4, or 1-3 for the masked tail.
func skipRow(w int, acc, x *float64, sx int, lst *int32, cnt int, v *float64, sv int) {
	switch w {
	case 64:
		skiprow64avx512(acc, x, sx, lst, cnt, v, sv)
	case 32:
		skiprow32avx(acc, x, sx, lst, cnt, v, sv)
	case 16:
		skiprow16avx(acc, x, sx, lst, cnt, v, sv)
	case 8:
		skiprow8avx(acc, x, sx, lst, cnt, v, sv)
	case 4:
		skiprow4avx(acc, x, sx, lst, cnt, v, sv)
	default:
		skiprowmaskavx(acc, x, sx, lst, cnt, v, sv, &skipTailMask[4-w])
	}
}

// skipTailMask[4-w:8-w] enables the first w lanes of a masked stripe.
var skipTailMask = [8]int64{-1, -1, -1, -1, 0, 0, 0, 0}

// vdotRowsAVX runs three gradient rows at a time through vdot3avx and the
// last one or two row by row through vdotavx.
func vdotRowsAVX(gi []float64, ldi int, g, w []float64, rows, in, n int) {
	if rows == 0 || in == 0 || n == 0 {
		vdotRowsGo(gi, ldi, g, w, rows, in, n) // empty dots are +0
		return
	}
	_ = gi[(rows-1)*ldi+in-1]
	_ = g[rows*n-1]
	_ = w[in*n-1]
	i := 0
	for ; i+3 <= rows; i += 3 {
		vdot3avx(&gi[i*ldi], ldi, &g[i*n], &w[0], in, n)
	}
	for ; i < rows; i++ {
		gr := &g[i*n]
		o := gi[i*ldi : i*ldi+in]
		for j := range o {
			o[j] = vdotavx(gr, &w[j*n], n)
		}
	}
}

// vdotRowsAVX512 runs six gradient rows at a time through vdot6avx512 and
// the last one to five through vdotRowsAVX.
func vdotRowsAVX512(gi []float64, ldi int, g, w []float64, rows, in, n int) {
	if rows == 0 || in == 0 || n == 0 {
		vdotRowsGo(gi, ldi, g, w, rows, in, n) // empty dots are +0
		return
	}
	_ = gi[(rows-1)*ldi+in-1]
	_ = g[rows*n-1]
	_ = w[in*n-1]
	i := 0
	for ; i+6 <= rows; i += 6 {
		vdot6avx512(&gi[i*ldi], ldi, &g[i*n], &w[0], in, n)
	}
	if i < rows {
		vdotRowsAVX(gi[i*ldi:], ldi, g[i*n:], w, rows-i, in, n)
	}
}

// adamAVX runs whole 4-lane groups through adamavx and the last 0-3
// elements through the Go twin.
func adamAVX(p, g, m, v []float64, k *adamCoef) {
	n := len(p) &^ 3
	if n > 0 {
		g, m, v := g[:len(p)], m[:len(p)], v[:len(p)]
		adamavx(&p[0], &g[0], &m[0], &v[0], k, n)
	}
	adamGo(p[n:], g[n:], m[n:], v[n:], k)
}

// adamAVX512 runs whole 8-lane groups through adamavx512 and the last 0-7
// elements through the Go twin.
func adamAVX512(p, g, m, v []float64, k *adamCoef) {
	n := len(p) &^ 7
	if n > 0 {
		g, m, v := g[:len(p)], m[:len(p)], v[:len(p)]
		adamavx512(&p[0], &g[0], &m[0], &v[0], k, n)
	}
	adamGo(p[n:], g[n:], m[n:], v[n:], k)
}

func bindGoKernels() {
	axpy1 = axpy1Go
	skipGemm = skipGemmGo
	vdotRows = vdotRowsGo
	adamUpdate = adamGo
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
	axpy1 = axpy1AVX
	skipGemm = skipGemmAVX
	vdotRows = vdotRowsAVX
	adamUpdate = adamAVX
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

// bindAVX512Kernels binds the AVX set with the 512-bit twins of the Dense
// tile kernels and Adam in place of their 256-bit forms.
func bindAVX512Kernels() {
	bindAVXKernels()
	skipGemm = skipGemmAVX512
	vdotRows = vdotRowsAVX512
	adamUpdate = adamAVX512
}

// bindKernels binds kernel set w, which the hardware supports.
func bindKernels(w int) {
	switch w {
	case width512:
		bindAVX512Kernels()
	case width256:
		bindAVXKernels()
	default:
		bindGoKernels()
	}
}

func init() {
	SetKernelWidth(widthNames[hostWidth])
}
