package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"netdrift/internal/nn"
)

// The scalar loops CovarianceWorkers, SolveInto and Cholesky ran before
// they moved onto nn.Axpy (At/Set, one element at a time), kept as the
// reference the axpy forms must match bit for bit. Each product that feeds an add is
// wrapped in float64(...) so the reference cannot fuse on arm64 either.

func refCovariance(x *Matrix) *Matrix {
	n, d := x.Dims()
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
	for i := 0; i < n; i++ {
		row := x.data[i*d : (i+1)*d]
		for a := 0; a < d; a++ {
			da := row[a] - means[a]
			if da == 0 {
				continue
			}
			crow := cov.data[a*d : (a+1)*d]
			for b := a; b < d; b++ {
				crow[b] += float64(da * (row[b] - means[b]))
			}
		}
	}
	norm := 1.0 / float64(n-1)
	for a := 0; a < d; a++ {
		for b := a; b < d; b++ {
			v := cov.At(a, b) * norm
			cov.Set(a, b, v)
			cov.Set(b, a, v)
		}
	}
	return cov
}

// refSolve also reports whether any pivot swap happened.
func refSolve(a, b *Matrix) (*Matrix, bool, error) {
	n := a.rows
	aw := new(Matrix).CopyFrom(a)
	bw := new(Matrix).CopyFrom(b)
	swapped := false
	for col := 0; col < n; col++ {
		pivot := col
		maxAbs := math.Abs(aw.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(aw.At(r, col)); v > maxAbs {
				maxAbs = v
				pivot = r
			}
		}
		if maxAbs < 1e-12 {
			return nil, false, ErrSingular
		}
		if pivot != col {
			swapRows(aw, pivot, col)
			swapRows(bw, pivot, col)
			swapped = true
		}
		pivVal := aw.At(col, col)
		for r := col + 1; r < n; r++ {
			factor := aw.At(r, col) / pivVal
			if factor == 0 {
				continue
			}
			for c := col; c < n; c++ {
				aw.Set(r, c, aw.At(r, c)-float64(factor*aw.At(col, c)))
			}
			for c := 0; c < bw.cols; c++ {
				bw.Set(r, c, bw.At(r, c)-float64(factor*bw.At(col, c)))
			}
		}
	}
	x := New(n, bw.cols)
	for c := 0; c < bw.cols; c++ {
		for r := n - 1; r >= 0; r-- {
			s := bw.At(r, c)
			for k := r + 1; k < n; k++ {
				s -= float64(aw.At(r, k) * x.At(k, c))
			}
			x.Set(r, c, s/aw.At(r, r))
		}
	}
	return x, swapped, nil
}

// refCholesky is the dot-per-entry factorization.
func refCholesky(a *Matrix) (*Matrix, error) {
	n := a.rows
	l := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			var s float64
			for k := 0; k < j; k++ {
				s += float64(l.At(i, k) * l.At(j, k))
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

// signedZeroMatrix fills a rows×cols matrix with normals, +0, -0 and
// tiny values, so the zero skips and the sign of zero sums are exercised.
func signedZeroMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.data {
		switch rng.Intn(8) {
		case 0:
			m.data[i] = 0
		case 1:
			m.data[i] = math.Copysign(0, -1)
		case 2:
			m.data[i] = 1e-300 * rng.NormFloat64()
		default:
			m.data[i] = rng.NormFloat64()
		}
	}
	return m
}

// forEachWidth runs fn once per kernel set the host can bind.
func forEachWidth(t *testing.T, fn func(t *testing.T)) {
	for _, w := range nn.KernelWidths() {
		t.Run(w, func(t *testing.T) {
			defer nn.SetKernelWidth(nn.SetKernelWidth(w))
			fn(t)
		})
	}
}

// TestCovarianceAxpyGolden pins CovarianceWorkers at 1 and 2 workers
// against the scalar loop, at every kernel width, over shapes on both
// sides of the inline-loop cutoff and of the parallel-work threshold, with
// ±0 entries and, in the constant column, centred values that are all
// exactly zero.
func TestCovarianceAxpyGolden(t *testing.T) {
	forEachWidth(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		for _, tc := range []struct{ n, d int }{
			{2, 1}, {5, 7}, {9, 8}, {40, 17}, {64, 33}, {50, 70},
		} {
			x := signedZeroMatrix(rng, tc.n, tc.d)
			for i := 0; i < tc.n; i++ {
				x.Set(i, tc.d/2, 3) // a constant column: every centred value is 0
			}
			want := refCovariance(x)
			for _, workers := range []int{1, 2} {
				got, err := CovarianceWorkers(x, workers)
				if err != nil {
					t.Fatal(err)
				}
				if !bitIdentical(got, want) {
					t.Fatalf("n=%d d=%d workers=%d: covariance differs from the scalar loop", tc.n, tc.d, workers)
				}
			}
		}
	})
}

// TestSolveAxpyGolden pins Solve, Inverse and InverseInto (with its own
// and with a's storage as the workspace) against the scalar elimination
// at every kernel width: right-hand sides with ±0 entries, sizes on both
// sides of the inline-loop cutoff, and matrices with a zero leading
// diagonal, which force pivot swaps.
func TestSolveAxpyGolden(t *testing.T) {
	forEachWidth(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(12))
		var aw, x Matrix
		sawSwap := false
		for _, n := range []int{1, 2, 5, 8, 9, 16, 33, 40} {
			a := signedZeroMatrix(rng, n, n)
			if n > 1 {
				a.Set(0, 0, 0)
				a.Set(0, 1, 1)
				a.Set(1, 0, 1)
			} else {
				a.Set(0, 0, 2)
			}
			for _, cols := range []int{1, 3, 11} {
				b := signedZeroMatrix(rng, n, cols)
				want, swapped, err := refSolve(a, b)
				if err != nil {
					t.Fatalf("n=%d: reference solve: %v", n, err)
				}
				sawSwap = sawSwap || swapped
				got, err := Solve(a, b)
				if err != nil {
					t.Fatal(err)
				}
				if !bitIdentical(got, want) {
					t.Fatalf("Solve n=%d cols=%d: differs from the scalar elimination", n, cols)
				}
			}
			want, _, err := refSolve(a, new(Matrix).SetIdentity(n))
			if err != nil {
				t.Fatal(err)
			}
			inv, err := Inverse(a)
			if err != nil {
				t.Fatal(err)
			}
			if !bitIdentical(inv, want) {
				t.Fatalf("Inverse n=%d: differs from the scalar elimination", n)
			}
			into, err := InverseInto(a, &aw, &x)
			if err != nil {
				t.Fatal(err)
			}
			if !bitIdentical(into, want) {
				t.Fatalf("InverseInto n=%d: differs from the scalar elimination", n)
			}
			// Eliminating in a itself, as the CI tests do.
			self := new(Matrix).CopyFrom(a)
			if got, err := InverseInto(self, self, &x); err != nil || !bitIdentical(got, want) {
				t.Fatalf("InverseInto n=%d with aw = a: err %v or differs from the scalar elimination", n, err)
			}
		}
		if !sawSwap {
			t.Fatal("no test matrix forced a pivot swap")
		}
	})
}

// TestCholeskyAxpyGolden pins Cholesky against the dot-per-entry loop at
// every kernel width: symmetric, diagonally dominant matrices whose
// off-diagonal entries include +0, -0 and tiny values (so factor entries
// of either zero sign occur), sizes on both sides of the inline-loop
// cutoff, and the same matrices with one diagonal entry made negative,
// which must fail at the same leading minor.
func TestCholeskyAxpyGolden(t *testing.T) {
	forEachWidth(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(13))
		sawNegZero := false
		for _, n := range []int{1, 2, 5, 8, 9, 16, 33, 40} {
			a := signedZeroMatrix(rng, n, n)
			for i := 0; i < n; i++ {
				for j := 0; j < i; j++ {
					a.Set(j, i, a.At(i, j))
				}
				a.Set(i, i, float64(2*n)+math.Abs(a.At(i, i)))
			}
			want, err := refCholesky(a)
			if err != nil {
				t.Fatalf("n=%d: reference: %v", n, err)
			}
			got, err := Cholesky(a)
			if err != nil {
				t.Fatal(err)
			}
			if !bitIdentical(got, want) {
				t.Fatalf("n=%d: Cholesky differs from the dot-per-entry loop", n)
			}
			for _, v := range got.data {
				sawNegZero = sawNegZero || math.Signbit(v) && v == 0
			}
			m := n / 2
			a.Set(m, m, -1)
			_, wantErr := refCholesky(a)
			if _, err := Cholesky(a); err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("n=%d: error %v, want %v", n, err, wantErr)
			}
		}
		if !sawNegZero {
			t.Fatal("no factor entry was -0")
		}
	})
}

// TestTriangleBlocks checks the covariance row split: contiguous,
// non-empty, at most the requested count, covering [0, d), and balanced
// by area to within one row.
func TestTriangleBlocks(t *testing.T) {
	area := func(lo, hi, d int) int {
		s := 0
		for a := lo; a < hi; a++ {
			s += d - a
		}
		return s
	}
	for _, d := range []int{1, 2, 3, 7, 64, 442} {
		for _, blocks := range []int{1, 2, 3, 5, 16} {
			b := triangleBlocks(d, blocks)
			if b[0] != 0 || b[len(b)-1] != d || len(b)-1 > blocks {
				t.Fatalf("d=%d blocks=%d: bounds %v", d, blocks, b)
			}
			total := d * (d + 1) / 2
			for k := 0; k+1 < len(b); k++ {
				if b[k] >= b[k+1] {
					t.Fatalf("d=%d blocks=%d: empty or unordered block in %v", d, blocks, b)
				}
				if len(b)-1 == blocks && area(b[k], b[k+1], d) > total/blocks+d {
					t.Fatalf("d=%d blocks=%d: block %d holds %d of %d entries: %v",
						d, blocks, k, area(b[k], b[k+1], d), total, b)
				}
			}
		}
	}
	// The 5GC shape at two workers: about half the triangle each, where
	// equal row counts gave the first worker three quarters of it.
	b := triangleBlocks(442, 2)
	if first := area(0, b[1], 442); first < 48000 || first > 49900 {
		t.Fatalf("442 rows at 2 blocks: first block holds %d of 97903 entries", first)
	}
}
