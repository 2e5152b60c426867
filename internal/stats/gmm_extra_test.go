package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestGMMThreeClusters(t *testing.T) {
	// Table III's protocol clusters into three components; verify EM
	// recovers three well-separated blobs and their size ordering.
	rng := rand.New(rand.NewSource(9))
	var x [][]float64
	centers := [][]float64{{0, 0}, {10, 0}, {0, 10}}
	sizes := []int{300, 150, 80}
	for c, n := range sizes {
		for i := 0; i < n; i++ {
			x = append(x, []float64{
				centers[c][0] + 0.6*rng.NormFloat64(),
				centers[c][1] + 0.6*rng.NormFloat64(),
			})
		}
	}
	g, err := FitGMM(x, GMMConfig{K: 3, Seed: 4, Restarts: 4})
	if err != nil {
		t.Fatal(err)
	}
	means := g.means
	if len(means) != 3 {
		t.Fatalf("means = %d; want 3", len(means))
	}
	// Every true center must be near some fitted mean.
	for _, c := range centers {
		best := math.Inf(1)
		for _, m := range means {
			d := math.Hypot(m[0]-c[0], m[1]-c[1])
			if d < best {
				best = d
			}
		}
		if best > 0.5 {
			t.Errorf("no fitted mean near center %v (closest %.2f away)", c, best)
		}
	}
	// Weights should roughly reflect the 300/150/80 split.
	w := g.weights
	var maxW float64
	for _, v := range w {
		if v > maxW {
			maxW = v
		}
	}
	if math.Abs(maxW-300.0/530.0) > 0.05 {
		t.Errorf("largest weight = %.3f; want ~%.3f", maxW, 300.0/530.0)
	}
}

func TestGMMSingleComponent(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x := make([][]float64, 200)
	for i := range x {
		x[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
	}
	g, err := FitGMM(x, GMMConfig{K: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := g.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pred {
		if p != 0 {
			t.Fatal("single-component GMM must assign everything to 0")
		}
	}
	if w := g.weights; math.Abs(w[0]-1) > 1e-9 {
		t.Errorf("weight = %v; want 1", w[0])
	}
}

func TestGMMDeterministicWithSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := make([][]float64, 150)
	for i := range x {
		x[i] = []float64{rng.NormFloat64() + float64(i%2)*6, rng.NormFloat64()}
	}
	a, err := FitGMM(x, GMMConfig{K: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := FitGMM(x, GMMConfig{K: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	pa, _ := a.Predict(x)
	pb, _ := b.Predict(x)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("same seed must produce identical assignments")
		}
	}
}
