package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndAccessors(t *testing.T) {
	m := New(2, 3)
	if r, c := m.Dims(); r != 2 || c != 3 {
		t.Fatalf("Dims() = %d,%d; want 2,3", r, c)
	}
	m.Set(1, 2, 5.5)
	if got := m.At(1, 2); got != 5.5 {
		t.Errorf("At(1,2) = %v; want 5.5", got)
	}
	if got := m.At(0, 0); got != 0 {
		t.Errorf("At(0,0) = %v; want 0 (zero matrix)", got)
	}
}

func TestFromRows(t *testing.T) {
	tests := []struct {
		name    string
		rows    [][]float64
		wantErr bool
	}{
		{name: "valid", rows: [][]float64{{1, 2}, {3, 4}}},
		{name: "empty", rows: nil, wantErr: true},
		{name: "ragged", rows: [][]float64{{1, 2}, {3}}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m, err := FromRows(tt.rows)
			if tt.wantErr {
				if err == nil {
					t.Fatal("expected error, got nil")
				}
				if !errors.Is(err, ErrShape) {
					t.Errorf("error = %v; want ErrShape", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("FromRows: %v", err)
			}
			if m.At(1, 0) != 3 {
				t.Errorf("At(1,0) = %v; want 3", m.At(1, 0))
			}
		})
	}
}

func TestFromRowsCopies(t *testing.T) {
	rows := [][]float64{{1, 2}, {3, 4}}
	m, err := FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	rows[0][0] = 99
	if m.At(0, 0) != 1 {
		t.Error("FromRows must copy its input")
	}
}

func TestTranspose(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if r, c := tr.Dims(); r != 3 || c != 2 {
		t.Fatalf("T() dims = %d,%d; want 3,2", r, c)
	}
	if tr.At(2, 1) != 6 {
		t.Errorf("T().At(2,1) = %v; want 6", tr.At(2, 1))
	}
	// Transpose is an involution.
	if !Equal(m, tr.T(), 0) {
		t.Error("T(T(m)) != m")
	}
}

func TestMul(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{5, 6}, {7, 8}})
	got, err := Mul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := FromRows([][]float64{{19, 22}, {43, 50}})
	if !Equal(got, want, 1e-12) {
		t.Errorf("Mul = %+v; want %+v", got, want)
	}

	bad := New(3, 3)
	if _, err := Mul(a, bad); !errors.Is(err, ErrShape) {
		t.Errorf("Mul shape mismatch error = %v; want ErrShape", err)
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := New(4, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	got, err := Mul(a, Identity(4))
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(got, a, 1e-12) {
		t.Error("a*I != a")
	}
}

func TestMulVec(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	got, err := MulVec(a, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 3 || got[1] != 7 {
		t.Errorf("MulVec = %v; want [3 7]", got)
	}
	if _, err := MulVec(a, []float64{1}); !errors.Is(err, ErrShape) {
		t.Errorf("MulVec shape error = %v; want ErrShape", err)
	}
}

func TestAddSubScale(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{4, 3}, {2, 1}})
	sum, err := Add(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := FromRows([][]float64{{5, 5}, {5, 5}})
	if !Equal(sum, want, 0) {
		t.Errorf("Add = %+v; want all-5s", sum)
	}
	diff, err := Add(sum, Scale(-1, b))
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(diff, a, 0) {
		t.Error("(a+b)-b != a")
	}
	sc := Scale(2, a)
	if sc.At(1, 1) != 8 {
		t.Errorf("Scale(2,a).At(1,1) = %v; want 8", sc.At(1, 1))
	}
}

func TestSolve(t *testing.T) {
	a, _ := FromRows([][]float64{{2, 1}, {1, 3}})
	b, _ := FromRows([][]float64{{3}, {5}})
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Verify a*x == b.
	ax, _ := Mul(a, x)
	if !Equal(ax, b, 1e-10) {
		t.Errorf("a*x = %+v; want %+v", ax, b)
	}
}

func TestSolveSingular(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {2, 4}})
	b := New(2, 1)
	if _, err := Solve(a, b); !errors.Is(err, ErrSingular) {
		t.Errorf("Solve singular error = %v; want ErrSingular", err)
	}
}

func TestInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 5
	a := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
		a.Set(i, i, a.At(i, i)+float64(n)) // diagonal dominance
	}
	inv, err := Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	prod, _ := Mul(a, inv)
	if !Equal(prod, Identity(n), 1e-8) {
		t.Error("a*inv(a) != I")
	}
}

func TestCholesky(t *testing.T) {
	// a = L0*L0^T for a known L0 is PD by construction.
	l0, _ := FromRows([][]float64{{2, 0, 0}, {1, 3, 0}, {0.5, -1, 1.5}})
	a, _ := Mul(l0, l0.T())
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := Mul(l, l.T())
	if !Equal(rec, a, 1e-10) {
		t.Error("L*L^T != a")
	}
}

func TestCholeskyNotPD(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := Cholesky(a); !errors.Is(err, ErrNotPD) {
		t.Errorf("Cholesky error = %v; want ErrNotPD", err)
	}
}

func TestCovariance(t *testing.T) {
	// Columns: x, 2x (perfectly correlated).
	x, _ := FromRows([][]float64{{1, 2}, {2, 4}, {3, 6}, {4, 8}})
	cov, err := Covariance(x)
	if err != nil {
		t.Fatal(err)
	}
	// var(x) over {1,2,3,4} is 5/3; cov(x,2x) = 2*var(x); var(2x) = 4*var(x).
	vx := 5.0 / 3.0
	if math.Abs(cov.At(0, 0)-vx) > 1e-10 {
		t.Errorf("cov(0,0) = %v; want %v", cov.At(0, 0), vx)
	}
	if math.Abs(cov.At(0, 1)-2*vx) > 1e-10 {
		t.Errorf("cov(0,1) = %v; want %v", cov.At(0, 1), 2*vx)
	}
	corr := CorrelationFromCov(cov)
	if math.Abs(corr.At(0, 1)-1) > 1e-10 {
		t.Errorf("corr(x,2x) = %v; want 1", corr.At(0, 1))
	}
}

func TestCovarianceTooFewRows(t *testing.T) {
	x := New(1, 3)
	if _, err := Covariance(x); !errors.Is(err, ErrShape) {
		t.Errorf("Covariance error = %v; want ErrShape", err)
	}
}

func TestSubMatrix(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	s, err := m.SubMatrix([]int{0, 2}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := FromRows([][]float64{{2, 3}, {8, 9}})
	if !Equal(s, want, 0) {
		t.Errorf("SubMatrix = %+v; want %+v", s, want)
	}
	if _, err := m.SubMatrix([]int{5}, []int{0}); !errors.Is(err, ErrShape) {
		t.Errorf("out-of-range error = %v; want ErrShape", err)
	}
}

// Property: (A*B)^T == B^T * A^T for random matrices.
func TestMulTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomMatrix(rng, 3, 4)
		b := randomMatrix(rng, 4, 2)
		ab, err := Mul(a, b)
		if err != nil {
			return false
		}
		btat, err := Mul(b.T(), a.T())
		if err != nil {
			return false
		}
		return Equal(ab.T(), btat, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: Solve(a, b) satisfies a*x ≈ b for random well-conditioned a.
func TestSolveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4
		a := randomMatrix(rng, n, n)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n)) // keep well-conditioned
		}
		b := randomMatrix(rng, n, 2)
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		ax, err := Mul(a, x)
		if err != nil {
			return false
		}
		return Equal(ax, b, 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: covariance matrices are symmetric positive semi-definite
// (checked as Cholesky succeeding after a small ridge).
func TestCovariancePSDProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := randomMatrix(rng, 30, 4)
		cov, err := Covariance(x)
		if err != nil {
			return false
		}
		if !Equal(cov, cov.T(), 1e-12) {
			return false
		}
		ridge := Identity(4)
		reg, err := Add(cov, Scale(1e-8, ridge))
		if err != nil {
			return false
		}
		_, err = Cholesky(reg)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func randomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}
