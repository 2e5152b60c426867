package mat

import (
	"math/rand"
	"reflect"
	"testing"
)

func randMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.data {
		m.data[i] = rng.NormFloat64()
	}
	return m
}

// diagDominant returns a random diagonally dominant (hence invertible)
// square matrix.
func diagDominant(rng *rand.Rand, n int) *Matrix {
	m := randMatrix(rng, n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, m.At(i, i)+float64(n)+1)
	}
	return m
}

// TestSolveIntoMatchesSolve pins the workspace solve bit-for-bit against
// Solve, reusing the same workspaces across descending sizes so stale
// contents from a larger system would surface as a mismatch.
func TestSolveIntoMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var aw, x Matrix
	for _, n := range []int{6, 4, 6, 2, 1} {
		a := diagDominant(rng, n)
		b := randMatrix(rng, n, 3)
		want, err := Solve(a, b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := SolveInto(a, b, &aw, &x)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.data, want.data) || got.rows != want.rows || got.cols != want.cols {
			t.Fatalf("n=%d: SolveInto differs from Solve", n)
		}
	}
}

// TestInverseIntoMatchesInverse pins the workspace inverse against Inverse.
func TestInverseIntoMatchesInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var aw, x Matrix
	for _, n := range []int{5, 3, 5, 1} {
		a := diagDominant(rng, n)
		want, err := Inverse(a)
		if err != nil {
			t.Fatal(err)
		}
		got, err := InverseInto(a, &aw, &x)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.data, want.data) {
			t.Fatalf("n=%d: InverseInto differs from Inverse", n)
		}
	}
}

// TestSubMatrixIntoMatchesSubMatrix covers the in-place extraction,
// including duplicate indices and out-of-range errors.
func TestSubMatrixIntoMatchesSubMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randMatrix(rng, 5, 6)
	var dst Matrix
	cases := [][2][]int{
		{{0, 2, 4}, {1, 3}},
		{{1, 1}, {0, 0, 5}},
		{{4}, {2}},
	}
	for _, c := range cases {
		want, err := m.SubMatrix(c[0], c[1])
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.SubMatrixInto(&dst, c[0], c[1])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.data, want.data) || got.rows != want.rows || got.cols != want.cols {
			t.Fatalf("rows %v cols %v: SubMatrixInto differs", c[0], c[1])
		}
	}
	if _, err := m.SubMatrixInto(&dst, []int{9}, []int{0}); err == nil {
		t.Fatal("expected out-of-range row error")
	}
	if _, err := m.SubMatrixInto(&dst, nil, []int{0}); err == nil {
		t.Fatal("expected empty index error")
	}
}

// TestResetReusesBacking verifies Reset only reallocates on growth — the
// property every scratch buffer in the repo leans on.
func TestResetReusesBacking(t *testing.T) {
	var m Matrix
	m.Reset(4, 5)
	base := &m.data[0]
	m.Reset(2, 3)
	if &m.data[0] != base {
		t.Fatal("shrinking Reset reallocated")
	}
	if m.rows != 2 || m.cols != 3 || len(m.data) != 6 {
		t.Fatalf("bad shape after Reset: %dx%d len %d", m.rows, m.cols, len(m.data))
	}
	m.Reset(10, 10)
	if len(m.data) != 100 {
		t.Fatal("growing Reset did not resize")
	}
}

// TestCopyFromSetIdentity covers the remaining workspace primitives,
// including identity over a dirty reused buffer.
func TestCopyFromSetIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	src := randMatrix(rng, 3, 4)
	var m Matrix
	m.CopyFrom(src)
	if !Equal(&m, src, 0) {
		t.Fatal("CopyFrom mismatch")
	}
	m.data[0] = 42
	if src.data[0] == 42 {
		t.Fatal("CopyFrom aliased the source")
	}
	m.Reset(4, 4)
	for i := range m.data {
		m.data[i] = 9 // dirty the workspace
	}
	m.SetIdentity(3)
	if want, _ := FromRows([][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}); !Equal(&m, want, 0) {
		t.Fatal("SetIdentity left stale contents")
	}
}
