package mat

import (
	"fmt"
	"math"

	"netdrift/internal/nn"
	"netdrift/internal/par"
)

// Solve solves the linear system a*x = b for x using Gaussian elimination
// with partial pivoting. a must be square; b may have multiple columns.
// Neither input is modified.
func Solve(a, b *Matrix) (*Matrix, error) {
	return SolveInto(a, b, new(Matrix), new(Matrix))
}

// SolveInto is Solve with caller-owned workspaces: aw receives the
// elimination working copy of a, and x a copy of b that the solve turns
// into the solution in place (both reshaped as needed). Returns x. The
// arithmetic is identical to Solve, operation for operation, so reusing
// workspaces never changes a result. aw may be a itself when the caller
// no longer needs a: the solve then overwrites it.
func SolveInto(a, b, aw, x *Matrix) (*Matrix, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("%w: coefficient matrix is %dx%d", ErrShape, a.rows, a.cols)
	}
	if a.rows != b.rows {
		return nil, fmt.Errorf("%w: a is %dx%d, b has %d rows", ErrShape, a.rows, a.cols, b.rows)
	}
	aw.CopyFrom(a)
	x.CopyFrom(b)
	if err := solveInPlace(aw, x); err != nil {
		return nil, err
	}
	return x, nil
}

// solveInPlace overwrites x with the solution of aw·s = x, destroying aw.
// Both phases are row updates on axpy. Elimination subtracts factor·v from
// each element as a + (−factor)·v, which IEEE defines to be the same
// value. Back-substitution solves every column of x at once: row r takes
// one axpy with −aw[r][k] per k > r, in ascending k, then divides by the
// pivot, so each element still subtracts its terms in the order a
// column-at-a-time loop would.
func solveInPlace(aw, x *Matrix) error {
	n := aw.rows
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		maxAbs := math.Abs(aw.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(aw.At(r, col)); v > maxAbs {
				maxAbs = v
				pivot = r
			}
		}
		if maxAbs < 1e-12 {
			return fmt.Errorf("%w: pivot %d", ErrSingular, col)
		}
		if pivot != col {
			swapRows(aw, pivot, col)
			swapRows(x, pivot, col)
		}
		// Eliminate below.
		arow, xrow := aw.Row(col)[col:], x.Row(col)
		pivVal := arow[0]
		for r := col + 1; r < n; r++ {
			factor := aw.At(r, col) / pivVal
			if factor == 0 {
				continue
			}
			axpy(-factor, arow, aw.Row(r)[col:])
			axpy(-factor, xrow, x.Row(r))
		}
	}
	// Back substitution: rows below r already hold their solutions.
	for r := n - 1; r >= 0; r-- {
		xr, arow := x.Row(r), aw.Row(r)
		for k := r + 1; k < n; k++ {
			axpy(-arow[k], x.Row(k), xr)
		}
		piv := arow[r]
		for c := range xr {
			xr[c] /= piv
		}
	}
	return nil
}

// axpy is o[k] += v*w[k], bit for bit nn.Axpy. Rows shorter than
// axpyMinLen (the causal tests' 2-6-variable inverses) take the inline
// loop, where a kernel call would cost more than it saves.
func axpy(v float64, w, o []float64) {
	if len(o) >= axpyMinLen {
		nn.Axpy(v, w, o)
		return
	}
	w = w[:len(o)]
	for k, wk := range w {
		o[k] += float64(v * wk)
	}
}

const axpyMinLen = 8

func swapRows(m *Matrix, i, j int) {
	ri := m.data[i*m.cols : (i+1)*m.cols]
	rj := m.data[j*m.cols : (j+1)*m.cols]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// Inverse returns the inverse of a square matrix.
func Inverse(a *Matrix) (*Matrix, error) {
	return InverseInto(a, new(Matrix), new(Matrix))
}

// InverseInto is Inverse with caller-owned workspaces: aw receives the
// elimination working copy of a (aw may be a itself, as in SolveInto), and
// the inverse is written into x, which starts as the identity. Returns x.
func InverseInto(a, aw, x *Matrix) (*Matrix, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("%w: %dx%d", ErrShape, a.rows, a.cols)
	}
	aw.CopyFrom(a)
	x.SetIdentity(a.rows)
	if err := solveInPlace(aw, x); err != nil {
		return nil, err
	}
	return x, nil
}

// Cholesky computes the lower-triangular factor L with a = L*Lᵀ.
// Returns ErrNotPD when a is not (numerically) positive definite.
//
// Each entry is L[i][j] = (a[i][j] - s)/L[j][j] (the square root of
// a[i][i] - s on the diagonal) with s = Σ_{k<j} L[i][k]·L[j][k] summed from
// +0 in ascending k. The factor is built as U = Lᵀ, one column per row of
// L, and transposed in place at the end: row i's sums are accumulated
// together in a row buffer, and once L[i][k] is final, one axpy adds its
// products with U's row k (the entries L[j][k], j ≤ i, already written) to
// every later sum. Each sum still adds its terms in ascending k from +0, so
// the bits are those of the dot-per-entry loop (refCholesky in the tests).
func Cholesky(a *Matrix) (*Matrix, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("%w: %dx%d", ErrShape, a.rows, a.cols)
	}
	n := a.rows
	u := New(n, n)
	s := make([]float64, n)
	for i := 0; i < n; i++ {
		ai := a.Row(i)
		clear(s[:i+1])
		for k := 0; k < i; k++ {
			lik := (ai[k] - s[k]) / u.data[k*n+k]
			u.data[k*n+i] = lik
			axpy(lik, u.Row(k)[k+1:i+1], s[k+1:i+1])
		}
		d := ai[i] - s[i]
		if d <= 0 {
			return nil, fmt.Errorf("%w: leading minor %d", ErrNotPD, i)
		}
		u.data[i*n+i] = math.Sqrt(d)
	}
	u.TransposeInPlace()
	return u, nil
}

// Covariance computes the (cols×cols) sample covariance matrix of the rows
// of x, using the unbiased 1/(n-1) normalization. x must have at least two
// rows.
func Covariance(x *Matrix) (*Matrix, error) {
	return CovarianceWorkers(x, 1)
}

// CovarianceWorkers computes Covariance with up to workers goroutines
// (workers <= 0 means GOMAXPROCS), parallelized over contiguous blocks of
// output rows of the upper triangle, sized by triangle area (row a holds
// d−a entries) so the blocks carry about equal work. Each covariance entry
// accumulates its per-sample terms in ascending sample order — the same
// order as the sequential kernel — so the result is bit-identical to
// Covariance for any worker count; a resolved worker count of 1 runs
// entirely in the calling goroutine.
func CovarianceWorkers(x *Matrix, workers int) (*Matrix, error) {
	n, d := x.Dims()
	if n < 2 {
		return nil, fmt.Errorf("%w: need >= 2 rows, have %d", ErrShape, n)
	}
	means := make([]float64, d)
	for i := 0; i < n; i++ {
		row := x.data[i*d : (i+1)*d]
		for j, v := range row {
			means[j] += v
		}
	}
	for j := range means {
		means[j] /= float64(n)
	}
	cov := New(d, d)
	// accumulate adds every sample's terms to output rows [lo, hi), upper
	// triangle only: the sample is centred once into c, then row a takes
	// c[a]·c[a:] as one axpy. An exact-zero c[a] skips its row, as it
	// always has: its terms are ±0 for finite data, but 0·Inf is NaN.
	accumulate := func(lo, hi int) {
		c := make([]float64, d)
		for i := 0; i < n; i++ {
			row := x.data[i*d : (i+1)*d]
			for b := lo; b < d; b++ {
				c[b] = row[b] - means[b]
			}
			for a := lo; a < hi; a++ {
				if c[a] == 0 {
					continue
				}
				axpy(c[a], c[a:], cov.Row(a)[a:])
			}
		}
	}
	workers = par.WorkersFor(workers, int64(n)*int64(d)*int64(d))
	if workers == 1 {
		accumulate(0, d)
	} else {
		// Each block owns disjoint output rows and scans the samples in
		// ascending order, so every cov[a][b] sees the identical sequence
		// of floating-point adds (the c[a] == 0 skips included) as the
		// sequential pass.
		bounds := triangleBlocks(d, workers)
		par.ForEach(workers, len(bounds)-1, func(k int) {
			accumulate(bounds[k], bounds[k+1])
		})
	}
	norm := 1.0 / float64(n-1)
	for a := 0; a < d; a++ {
		for b := a; b < d; b++ {
			v := cov.At(a, b) * norm
			cov.Set(a, b, v)
			cov.Set(b, a, v)
		}
	}
	return cov, nil
}

// triangleBlocks splits the rows [0, d) of a d×d upper triangle into at
// most blocks contiguous, non-empty ranges of about equal area, returned
// as ascending bounds from 0 to d: range k is [bounds[k], bounds[k+1]).
// A range ends at the first row where the area so far reaches its share.
func triangleBlocks(d, blocks int) []int {
	total := d * (d + 1) / 2
	bounds := []int{0}
	area := 0
	for a := 0; a < d-1; a++ {
		area += d - a
		if area*blocks >= len(bounds)*total {
			bounds = append(bounds, a+1)
		}
	}
	return append(bounds, d)
}

// CorrelationFromCov converts a covariance matrix into a correlation matrix.
// Zero-variance dimensions yield zero correlations (and unit diagonal).
func CorrelationFromCov(cov *Matrix) *Matrix {
	d := cov.rows
	corr := New(d, d)
	sd := make([]float64, d)
	for i := 0; i < d; i++ {
		sd[i] = math.Sqrt(math.Max(cov.At(i, i), 0))
	}
	for a := 0; a < d; a++ {
		for b := 0; b < d; b++ {
			if a == b {
				corr.Set(a, b, 1)
				continue
			}
			if sd[a] == 0 || sd[b] == 0 {
				continue
			}
			corr.Set(a, b, cov.At(a, b)/(sd[a]*sd[b]))
		}
	}
	return corr
}
