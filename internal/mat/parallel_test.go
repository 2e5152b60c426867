package mat

import (
	"math/rand"
	"testing"
)

func seededMatrix(rows, cols int, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := New(rows, cols)
	for i := range m.data {
		// Mix in exact zeros so the da == 0 / av == 0 skip paths are
		// exercised by the bit-identity comparison.
		if rng.Intn(7) == 0 {
			continue
		}
		m.data[i] = rng.NormFloat64()
	}
	return m
}

// bitIdentical reports whether two matrices match exactly — same float64
// bit patterns, not approximate equality.
func bitIdentical(a, b *Matrix) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i := range a.data {
		if a.data[i] != b.data[i] {
			return false
		}
		// Distinguish +0 from -0: a sign flip would betray a reordered
		// reduction even though == treats them as equal.
		if a.data[i] == 0 && (1/a.data[i] != 1/b.data[i]) {
			return false
		}
	}
	return true
}

func TestWrap(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6}
	m, err := Wrap(2, 3, data)
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 2) != 6 {
		t.Errorf("At(1,2) = %v; want 6", m.At(1, 2))
	}
	// No copy: mutating the backing slice must show through.
	data[5] = 60
	if m.At(1, 2) != 60 {
		t.Error("Wrap copied the data; want shared backing slice")
	}
	if _, err := Wrap(2, 3, []float64{1}); err == nil {
		t.Error("no error for wrong-sized data")
	}
	if _, err := Wrap(0, 3, nil); err == nil {
		t.Error("no error for zero rows")
	}
}

func TestCovarianceWorkersBitIdentical(t *testing.T) {
	for _, tc := range []struct{ n, d int }{
		{2, 1}, {50, 7}, {400, 33}, {123, 64},
	} {
		x := seededMatrix(tc.n, tc.d, int64(tc.n*31+tc.d))
		seq, err := CovarianceWorkers(x, 1)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := Covariance(x); !bitIdentical(seq, want) {
			t.Fatal("CovarianceWorkers(x, 1) differs from Covariance(x)")
		}
		for _, workers := range []int{2, 5, 16} {
			parOut, err := CovarianceWorkers(x, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !bitIdentical(seq, parOut) {
				t.Fatalf("n=%d d=%d workers=%d: parallel covariance differs from sequential",
					tc.n, tc.d, workers)
			}
		}
	}
}

func TestCovarianceWorkersTooFewRows(t *testing.T) {
	if _, err := CovarianceWorkers(New(1, 3), 4); err == nil {
		t.Error("no error for single-row input")
	}
}
