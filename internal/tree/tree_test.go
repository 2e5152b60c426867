package tree

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// gaussBlobs builds a simple k-class problem with well separated Gaussian
// clusters in d dimensions.
func gaussBlobs(n, d, k int, sep float64, rng *rand.Rand) ([][]float64, []int) {
	x := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % k
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		row[c%d] += sep
		x[i] = row
		y[i] = c
	}
	return x, y
}

func accuracy(probs [][]float64, y []int) float64 {
	var correct int
	for i, p := range probs {
		best := 0
		for c, v := range p {
			if v > p[best] {
				best = c
			}
		}
		if best == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(y))
}

func TestClassificationTreeSeparable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, y := gaussBlobs(400, 5, 3, 6, rng)
	tr, err := FitClassificationTree(x, y, 3, ClassTreeConfig{Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	probs, err := tr.PredictProba(x)
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(probs, y); acc < 0.97 {
		t.Errorf("train accuracy = %v; want >= 0.97", acc)
	}
	if len(tr.nodes) == 0 {
		t.Error("tree has no nodes")
	}
}

func TestClassificationTreeGeneralizes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, y := gaussBlobs(600, 4, 2, 5, rng)
	xTest, yTest := gaussBlobs(200, 4, 2, 5, rng)
	tr, err := FitClassificationTree(x, y, 2, ClassTreeConfig{MaxDepth: 6, Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	probs, err := tr.PredictProba(xTest)
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(probs, yTest); acc < 0.9 {
		t.Errorf("test accuracy = %v; want >= 0.9", acc)
	}
}

func TestClassificationTreeErrors(t *testing.T) {
	if _, err := FitClassificationTree(nil, nil, 2, ClassTreeConfig{}); err == nil {
		t.Error("expected error for empty data")
	}
	if _, err := FitClassificationTree([][]float64{{1}}, []int{0}, 1, ClassTreeConfig{}); err == nil {
		t.Error("expected error for single class")
	}
	var empty ClassificationTree
	if _, err := empty.PredictProba([][]float64{{1}}); !errors.Is(err, ErrNotTrained) {
		t.Errorf("err = %v; want ErrNotTrained", err)
	}
}

func TestTreeProbabilitiesSumToOne(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x, y := gaussBlobs(100, 3, 3, 2, rng)
		tr, err := FitClassificationTree(x, y, 3, ClassTreeConfig{MaxDepth: 5, Rng: rng})
		if err != nil {
			return false
		}
		probs, err := tr.PredictProba(x[:20])
		if err != nil {
			return false
		}
		for _, p := range probs {
			var s float64
			for _, v := range p {
				if v < 0 {
					return false
				}
				s += v
			}
			if math.Abs(s-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestRandomForest(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, y := gaussBlobs(500, 6, 4, 4, rng)
	xTest, yTest := gaussBlobs(200, 6, 4, 4, rng)
	rf, err := FitRandomForest(x, y, 4, ForestConfig{NumTrees: 30, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(rf.trees) != 30 {
		t.Errorf("NumTrees = %d; want 30", len(rf.trees))
	}
	probs, err := rf.PredictProba(xTest)
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(probs, yTest); acc < 0.92 {
		t.Errorf("forest test accuracy = %v; want >= 0.92", acc)
	}
	// Probabilities normalized.
	for _, p := range probs[:5] {
		var s float64
		for _, v := range p {
			s += v
		}
		if math.Abs(s-1) > 1e-9 {
			t.Errorf("probs sum to %v", s)
		}
	}
}

func TestRandomForestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, y := gaussBlobs(200, 4, 2, 4, rng)
	a, err := FitRandomForest(x, y, 2, ForestConfig{NumTrees: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := FitRandomForest(x, y, 2, ForestConfig{NumTrees: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	pa, _ := a.PredictProba(x[:10])
	pb, _ := b.PredictProba(x[:10])
	for i := range pa {
		for c := range pa[i] {
			if pa[i][c] != pb[i][c] {
				t.Fatal("same seed must produce identical forests")
			}
		}
	}
}

func TestRandomForestErrors(t *testing.T) {
	if _, err := FitRandomForest(nil, nil, 2, ForestConfig{}); err == nil {
		t.Error("expected error for empty data")
	}
	var rf RandomForest
	if _, err := rf.PredictProba([][]float64{{1}}); !errors.Is(err, ErrNotTrained) {
		t.Errorf("err = %v; want ErrNotTrained", err)
	}
}

func TestGradientBoosting(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x, y := gaussBlobs(500, 6, 4, 4, rng)
	xTest, yTest := gaussBlobs(200, 6, 4, 4, rng)
	gb, err := FitGradientBoosting(x, y, 4, BoostConfig{Rounds: 30, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(gb.trees) != 30 {
		t.Errorf("NumRounds = %d; want 30", len(gb.trees))
	}
	probs, err := gb.PredictProba(xTest)
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(probs, yTest); acc < 0.92 {
		t.Errorf("boosting test accuracy = %v; want >= 0.92", acc)
	}
}

func TestGradientBoostingBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x, y := gaussBlobs(400, 4, 2, 4, rng)
	gb, err := FitGradientBoosting(x, y, 2, BoostConfig{Rounds: 20, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	probs, err := gb.PredictProba(x)
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(probs, y); acc < 0.95 {
		t.Errorf("binary train accuracy = %v; want >= 0.95", acc)
	}
}

func TestGradientBoostingErrors(t *testing.T) {
	if _, err := FitGradientBoosting(nil, nil, 2, BoostConfig{}); err == nil {
		t.Error("expected error for empty data")
	}
	if _, err := FitGradientBoosting([][]float64{{1}}, []int{0}, 1, BoostConfig{}); err == nil {
		t.Error("expected error for single class")
	}
	var gb GradientBoosting
	if _, err := gb.PredictProba([][]float64{{1}}); !errors.Is(err, ErrNotTrained) {
		t.Errorf("err = %v; want ErrNotTrained", err)
	}
}

func TestGradientBoostingImprovesWithRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x, y := gaussBlobs(400, 5, 3, 2.5, rng)
	short, err := FitGradientBoosting(x, y, 3, BoostConfig{Rounds: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	long, err := FitGradientBoosting(x, y, 3, BoostConfig{Rounds: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ps, _ := short.PredictProba(x)
	pl, _ := long.PredictProba(x)
	if accuracy(pl, y) <= accuracy(ps, y) {
		t.Errorf("more rounds should improve train accuracy: %v vs %v",
			accuracy(pl, y), accuracy(ps, y))
	}
}

// TestPermIntoMatchesPerm pins the scratch-filling permutation against
// rand.Perm: identical permutations AND identical rng stream position, so
// feature subsampling is unchanged by the builder's buffer reuse.
func TestPermIntoMatchesPerm(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5, 17, 64} {
		a := rand.New(rand.NewSource(int64(n) + 7))
		b := rand.New(rand.NewSource(int64(n) + 7))
		want := a.Perm(n)
		buf := make([]int, 0)
		got := permInto(b, n, buf)
		if len(got) != len(want) {
			t.Fatalf("n=%d: length %d, want %d", n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: perm[%d] = %d, want %d", n, i, got[i], want[i])
			}
		}
		if a.Int63() != b.Int63() {
			t.Fatalf("n=%d: rng streams diverged after permutation", n)
		}
	}
}

// TestRejectsMalformedRows runs the three fits and the three PredictProba
// methods on malformed input. Ragged, featureless and out-of-range-label
// training sets and prediction rows of another width than the trained one
// must each return an error; they used to index out of range.
func TestRejectsMalformedRows(t *testing.T) {
	type predictor interface {
		PredictProba([][]float64) ([][]float64, error)
	}
	fits := []struct {
		name string
		fit  func(x [][]float64, y []int) (predictor, error)
	}{
		{"ClassificationTree", func(x [][]float64, y []int) (predictor, error) {
			return FitClassificationTree(x, y, 2, ClassTreeConfig{})
		}},
		{"RandomForest", func(x [][]float64, y []int) (predictor, error) {
			return FitRandomForest(x, y, 2, ForestConfig{NumTrees: 3, Seed: 1})
		}},
		{"GradientBoosting", func(x [][]float64, y []int) (predictor, error) {
			return FitGradientBoosting(x, y, 2, BoostConfig{Rounds: 3, Seed: 1})
		}},
	}
	rng := rand.New(rand.NewSource(3))
	x, y := gaussBlobs(40, 3, 2, 3, rng)
	badFits := []struct {
		name string
		x    [][]float64
		y    []int
	}{
		{"wide row", [][]float64{x[0], x[1], {1, 2, 3, 4}, x[3]}, y[:4]},
		{"narrow row", [][]float64{x[0], {1}, x[2], x[3]}, y[:4]},
		{"empty later row", [][]float64{x[0], x[1], {}, x[3]}, y[:4]},
		{"no features", [][]float64{{}, {}}, []int{0, 1}},
		{"negative label", x[:4], []int{0, 1, -1, 1}},
		{"label past numClasses", x[:4], []int{0, 1, 2, 1}},
	}
	badRows := []struct {
		name string
		x    [][]float64
	}{
		{"narrow row", [][]float64{x[0], {1, 2}}},
		{"one-column row", [][]float64{{1}}},
		{"empty row", [][]float64{x[0], {}}},
		{"wide row", [][]float64{{1, 2, 3, 4}}},
	}
	for _, f := range fits {
		t.Run(f.name, func(t *testing.T) {
			for _, bad := range badFits {
				if _, err := f.fit(bad.x, bad.y); err == nil {
					t.Errorf("fit with a %s returned no error", bad.name)
				}
			}
			m, err := f.fit(x, y)
			if err != nil {
				t.Fatal(err)
			}
			for _, bad := range badRows {
				if _, err := m.PredictProba(bad.x); err == nil {
					t.Errorf("PredictProba with a %s returned no error", bad.name)
				}
			}
			if p, err := m.PredictProba(x[:2]); err != nil || len(p) != 2 {
				t.Errorf("PredictProba on well-formed rows: %d rows, err %v", len(p), err)
			}
		})
	}
}
