package mat

import (
	"fmt"
	"runtime"
	"testing"
)

func BenchmarkCovariance(b *testing.B) {
	for _, tc := range []struct{ n, d int }{{2000, 64}, {5000, 128}} {
		x := seededMatrix(tc.n, tc.d, 3)
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			b.Run(fmt.Sprintf("n=%d_d=%d/workers=%d", tc.n, tc.d, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := CovarianceWorkers(x, workers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkInverseIntoSmall times the causal CI test's precision-matrix
// inverse at its sizes (the pair plus one to four conditioning variables)
// with warm workspaces, the path where kernel-call overhead matters most.
func BenchmarkInverseIntoSmall(b *testing.B) {
	for _, n := range []int{3, 4, 5, 6} {
		a := seededMatrix(n, n, int64(n))
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n))
		}
		var aw, x Matrix
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := InverseInto(a, &aw, &x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
