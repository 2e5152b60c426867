// Package mat provides small dense-matrix primitives used throughout the
// library: construction, arithmetic, linear solves, Cholesky factorization,
// and covariance estimation. It is intentionally minimal — just what the
// causal-inference tests, Gaussian mixture models, and alignment baselines
// need — and has no external dependencies.
package mat

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix of float64.
type Matrix struct {
	rows, cols int
	data       []float64
}

var (
	// ErrShape is returned when operand dimensions are incompatible.
	ErrShape = errors.New("mat: incompatible shapes")
	// ErrSingular is returned when a solve or inversion encounters a
	// (numerically) singular matrix.
	ErrSingular = errors.New("mat: singular matrix")
	// ErrNotPD is returned by Cholesky when the input is not positive
	// definite.
	ErrNotPD = errors.New("mat: matrix is not positive definite")
)

// New returns a rows×cols zero matrix.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows. The data is
// copied.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, fmt.Errorf("%w: empty input", ErrShape)
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			return nil, fmt.Errorf("%w: row %d has %d columns, want %d", ErrShape, i, len(r), m.cols)
		}
		copy(m.data[i*m.cols:(i+1)*m.cols], r)
	}
	return m, nil
}

// Wrap builds a rows×cols matrix backed directly by data (row-major).
// No copy is made: the caller transfers ownership of data
// and must not mutate it afterwards. This lets hot paths assemble a matrix
// in a single allocation.
func Wrap(rows, cols int, data []float64) (*Matrix, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("%w: invalid dimensions %dx%d", ErrShape, rows, cols)
	}
	if len(data) != rows*cols {
		return nil, fmt.Errorf("%w: %d values for %dx%d", ErrShape, len(data), rows, cols)
	}
	return &Matrix{rows: rows, cols: cols, data: data}, nil
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Reset reshapes m to rows×cols, reusing the existing backing array when it
// is large enough (the workspace primitive behind the *Into variants). The
// contents after Reset are undefined. Returns m for chaining.
func (m *Matrix) Reset(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", rows, cols))
	}
	n := rows * cols
	if cap(m.data) < n {
		m.data = make([]float64, n)
	}
	m.data = m.data[:n]
	m.rows, m.cols = rows, cols
	return m
}

// CopyFrom reshapes m to src's shape and copies src's contents into it.
func (m *Matrix) CopyFrom(src *Matrix) *Matrix {
	m.Reset(src.rows, src.cols)
	copy(m.data, src.data)
	return m
}

// SetIdentity reshapes m to n×n and fills it with the identity.
func (m *Matrix) SetIdentity(n int) *Matrix {
	m.Reset(n, n)
	for i := range m.data {
		m.data[i] = 0
	}
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Dims returns the (rows, cols) of the matrix.
func (m *Matrix) Dims() (int, int) { return m.rows, m.cols }

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	t := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = m.data[i*m.cols+j]
		}
	}
	return t
}

// Add returns a+b.
func Add(a, b *Matrix) (*Matrix, error) {
	if a.rows != b.rows || a.cols != b.cols {
		return nil, fmt.Errorf("%w: %dx%d + %dx%d", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	out := New(a.rows, a.cols)
	for i := range a.data {
		out.data[i] = a.data[i] + b.data[i]
	}
	return out, nil
}

// Scale returns s*a as a new matrix.
func Scale(s float64, a *Matrix) *Matrix {
	out := New(a.rows, a.cols)
	for i := range a.data {
		out.data[i] = s * a.data[i]
	}
	return out
}

// Mul returns the matrix product a*b.
func Mul(a, b *Matrix) (*Matrix, error) {
	if a.cols != b.rows {
		return nil, fmt.Errorf("%w: %dx%d * %dx%d", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	out := New(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		orow := out.data[i*out.cols : (i+1)*out.cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out, nil
}

// MulVec returns the matrix-vector product a*x.
func MulVec(a *Matrix, x []float64) ([]float64, error) {
	if a.cols != len(x) {
		return nil, fmt.Errorf("%w: %dx%d * vec(%d)", ErrShape, a.rows, a.cols, len(x))
	}
	out := make([]float64, a.rows)
	for i := 0; i < a.rows; i++ {
		row := a.data[i*a.cols : (i+1)*a.cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out, nil
}

// SubMatrix extracts the rows and columns listed in rowIdx and colIdx (in
// order, duplicates allowed).
func (m *Matrix) SubMatrix(rowIdx, colIdx []int) (*Matrix, error) {
	return m.SubMatrixInto(new(Matrix), rowIdx, colIdx)
}

// SubMatrixInto is SubMatrix writing into the caller-owned dst (reshaped as
// needed). Returns dst.
func (m *Matrix) SubMatrixInto(dst *Matrix, rowIdx, colIdx []int) (*Matrix, error) {
	if len(rowIdx) == 0 || len(colIdx) == 0 {
		return nil, fmt.Errorf("%w: empty index set", ErrShape)
	}
	out := dst.Reset(len(rowIdx), len(colIdx))
	for i, ri := range rowIdx {
		if ri < 0 || ri >= m.rows {
			return nil, fmt.Errorf("%w: row index %d out of range", ErrShape, ri)
		}
		for j, cj := range colIdx {
			if cj < 0 || cj >= m.cols {
				return nil, fmt.Errorf("%w: col index %d out of range", ErrShape, cj)
			}
			out.data[i*out.cols+j] = m.data[ri*m.cols+cj]
		}
	}
	return out, nil
}

// Equal reports whether a and b have the same shape and entries within tol.
func Equal(a, b *Matrix, tol float64) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i := range a.data {
		if math.Abs(a.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}
