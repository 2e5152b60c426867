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
