package mat

import (
	"fmt"
	"math"

	"netdrift/internal/par"
)

// Solve solves the linear system a*x = b for x using Gaussian elimination
// with partial pivoting. a must be square; b may have multiple columns.
// Neither input is modified.
func Solve(a, b *Matrix) (*Matrix, error) {
	return SolveInto(a, b, new(Matrix), new(Matrix), new(Matrix))
}

// SolveInto is Solve with caller-owned workspaces: aw and bw receive the
// elimination working copies of a and b, and the solution is written into x
// (all three reshaped as needed). Returns x. The elimination and
// back-substitution arithmetic is identical to Solve, operation for
// operation, so reusing workspaces never changes a result.
func SolveInto(a, b, aw, bw, x *Matrix) (*Matrix, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("%w: coefficient matrix is %dx%d", ErrShape, a.rows, a.cols)
	}
	if a.rows != b.rows {
		return nil, fmt.Errorf("%w: a is %dx%d, b has %d rows", ErrShape, a.rows, a.cols, b.rows)
	}
	n := a.rows
	// Augmented working copies.
	aw.CopyFrom(a)
	bw.CopyFrom(b)

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
			return nil, fmt.Errorf("%w: pivot %d", ErrSingular, col)
		}
		if pivot != col {
			swapRows(aw, pivot, col)
			swapRows(bw, pivot, col)
		}
		// Eliminate below.
		pivVal := aw.At(col, col)
		for r := col + 1; r < n; r++ {
			factor := aw.At(r, col) / pivVal
			if factor == 0 {
				continue
			}
			for c := col; c < n; c++ {
				aw.Set(r, c, aw.At(r, c)-factor*aw.At(col, c))
			}
			for c := 0; c < bw.cols; c++ {
				bw.Set(r, c, bw.At(r, c)-factor*bw.At(col, c))
			}
		}
	}
	// Back substitution (every x entry is written before it is read, so the
	// workspace needs no zeroing).
	x.Reset(n, bw.cols)
	for c := 0; c < bw.cols; c++ {
		for r := n - 1; r >= 0; r-- {
			s := bw.At(r, c)
			for k := r + 1; k < n; k++ {
				s -= aw.At(r, k) * x.At(k, c)
			}
			x.Set(r, c, s/aw.At(r, r))
		}
	}
	return x, nil
}

func swapRows(m *Matrix, i, j int) {
	ri := m.data[i*m.cols : (i+1)*m.cols]
	rj := m.data[j*m.cols : (j+1)*m.cols]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// Inverse returns the inverse of a square matrix.
func Inverse(a *Matrix) (*Matrix, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("%w: %dx%d", ErrShape, a.rows, a.cols)
	}
	return Solve(a, Identity(a.rows))
}

// InverseInto is Inverse with caller-owned workspaces: ident holds the
// identity right-hand side, aw/bw the elimination working copies, and the
// inverse is written into x. Returns x.
func InverseInto(a, ident, aw, bw, x *Matrix) (*Matrix, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("%w: %dx%d", ErrShape, a.rows, a.cols)
	}
	ident.SetIdentity(a.rows)
	return SolveInto(a, ident, aw, bw, x)
}

// Cholesky computes the lower-triangular factor L with a = L*Lᵀ.
// Returns ErrNotPD when a is not (numerically) positive definite.
func Cholesky(a *Matrix) (*Matrix, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("%w: %dx%d", ErrShape, a.rows, a.cols)
	}
	n := a.rows
	l := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			var s float64
			for k := 0; k < j; k++ {
				s += l.At(i, k) * l.At(j, k)
			}
			if i == j {
				d := a.At(i, i) - s
				if d <= 0 {
					return nil, fmt.Errorf("%w: leading minor %d", ErrNotPD, i)
				}
				l.Set(i, j, math.Sqrt(d))
			} else {
				l.Set(i, j, (a.At(i, j)-s)/l.At(j, j))
			}
		}
	}
	return l, nil
}

// Covariance computes the (cols×cols) sample covariance matrix of the rows
// of x, using the unbiased 1/(n-1) normalization. x must have at least two
// rows.
func Covariance(x *Matrix) (*Matrix, error) {
	return CovarianceWorkers(x, 1)
}

// CovarianceWorkers computes Covariance with up to workers goroutines
// (workers <= 0 means GOMAXPROCS), parallelized over contiguous blocks of
// output rows. Each covariance entry accumulates its per-sample terms in
// ascending sample order — the same order as the sequential kernel — so the
// result is bit-identical to Covariance for any worker count; a resolved
// worker count of 1 runs entirely in the calling goroutine.
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
	workers = par.WorkersFor(workers, int64(n)*int64(d)*int64(d))
	if workers == 1 {
		// Sequential path: one pass over the samples, upper triangle only.
		for i := 0; i < n; i++ {
			row := x.data[i*d : (i+1)*d]
			for a := 0; a < d; a++ {
				da := row[a] - means[a]
				if da == 0 {
					continue
				}
				crow := cov.data[a*d : (a+1)*d]
				for b := a; b < d; b++ {
					crow[b] += da * (row[b] - means[b])
				}
			}
		}
	} else {
		// Parallel path: each worker owns a disjoint block of output rows
		// and scans the samples in the same ascending order, so every
		// cov[a][b] sees the identical sequence of floating-point adds
		// (including the da == 0 skips) as the sequential pass.
		par.Blocks(workers, d, func(lo, hi int) {
			for i := 0; i < n; i++ {
				row := x.data[i*d : (i+1)*d]
				for a := lo; a < hi; a++ {
					da := row[a] - means[a]
					if da == 0 {
						continue
					}
					crow := cov.data[a*d : (a+1)*d]
					for b := a; b < d; b++ {
						crow[b] += da * (row[b] - means[b])
					}
				}
			}
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
