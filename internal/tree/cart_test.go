package tree

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refFitClassificationTree is the CART builder that sorted row indices with
// sort.Slice through x[i][f] for every sampled feature, kept as the oracle
// for the keyed (value, label) sort. Rows are partitioned into fresh
// left/right slices.
func refFitClassificationTree(x [][]float64, y []int, numClasses int, cfg ClassTreeConfig) *ClassificationTree {
	t := &ClassificationTree{width: len(x[0])}
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	var build func(idx []int, depth int) int
	leaf := func(counts []float64, n int) int {
		dist := make([]float64, numClasses)
		for c := range counts {
			dist[c] = counts[c] / float64(n)
		}
		t.nodes = append(t.nodes, node{feature: -1, dist: dist})
		return len(t.nodes) - 1
	}
	build = func(idx []int, depth int) int {
		counts := make([]float64, numClasses)
		for _, i := range idx {
			counts[y[i]]++
		}
		pure := 0
		for _, c := range counts {
			if c > 0 {
				pure++
			}
		}
		if depth >= cfg.MaxDepth || pure <= 1 || len(idx) < 2*cfg.MinLeaf {
			return leaf(counts, len(idx))
		}
		feat, thresh, ok := refBestSplit(x, y, idx, counts, cfg)
		if !ok {
			return leaf(counts, len(idx))
		}
		var left, right []int
		for _, i := range idx {
			if x[i][feat] <= thresh {
				left = append(left, i)
			} else {
				right = append(right, i)
			}
		}
		if len(left) < cfg.MinLeaf || len(right) < cfg.MinLeaf {
			return leaf(counts, len(idx))
		}
		me := len(t.nodes)
		t.nodes = append(t.nodes, node{feature: feat, thresh: thresh})
		l := build(left, depth+1)
		r := build(right, depth+1)
		t.nodes[me].left = l
		t.nodes[me].right = r
		return me
	}
	build(idx, 0)
	return t
}

func refBestSplit(x [][]float64, y, idx []int, counts []float64, cfg ClassTreeConfig) (int, float64, bool) {
	n := float64(len(idx))
	parentImp := giniImpurity(counts, n)
	bestGain := 1e-12
	bestFeat, bestThresh := -1, 0.0
	feats := cfg.Rng.Perm(len(x[0]))[:cfg.MaxFeatures]
	leftCounts := make([]float64, len(counts))
	for _, f := range feats {
		sorted := append([]int(nil), idx...)
		sort.Slice(sorted, func(a, c int) bool { return x[sorted[a]][f] < x[sorted[c]][f] })
		for c := range leftCounts {
			leftCounts[c] = 0
		}
		var nl float64
		for pos := 0; pos < len(sorted)-1; pos++ {
			i := sorted[pos]
			leftCounts[y[i]]++
			nl++
			v, next := x[i][f], x[sorted[pos+1]][f]
			if v == next {
				continue
			}
			if int(nl) < cfg.MinLeaf || len(sorted)-int(nl) < cfg.MinLeaf {
				continue
			}
			nr := n - nl
			impL := giniImpurityLeft(leftCounts, nl)
			impR := giniImpurityRight(counts, leftCounts, nr)
			gain := parentImp - (nl/n)*impL - (nr/n)*impR
			if gain > bestGain {
				bestGain = gain
				bestFeat = f
				bestThresh = (v + next) / 2
			}
		}
	}
	return bestFeat, bestThresh, bestFeat >= 0
}

// TestClassificationTreeMatchesReference pins the keyed split sort to the
// sort.Slice builder: every tree must match node for node, with the same
// feature, threshold bits, children and leaf-distribution bits. Inputs are
// heavily tied (few levels per feature, both signs of zero), with and
// without the duplicated rows of a forest's bootstrap resample.
func TestClassificationTreeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	splits := 0
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.Intn(399)
		if trial < 6 {
			n = 2 + trial
		}
		k := 2 + trial%9
		d := 1 + rng.Intn(12)
		x, y := tiedProblem(n, d, k, rng)
		for _, row := range x {
			for f, v := range row {
				if v == 0 && rng.Intn(2) == 0 {
					row[f] = math.Copysign(0, -1)
				}
			}
		}
		if trial%2 == 1 {
			// Bootstrap resample: rows share backing slices, as in
			// FitRandomForest.
			bx, by := make([][]float64, n), make([]int, n)
			for i := range bx {
				j := rng.Intn(n)
				bx[i], by[i] = x[j], y[j]
			}
			x, y = bx, by
		}
		cfg := ClassTreeConfig{
			MaxDepth:    1 + trial%16,
			MinLeaf:     1 + trial%3,
			MaxFeatures: 1 + rng.Intn(d),
		}
		seed := rng.Int63()
		cfg.Rng = rand.New(rand.NewSource(seed))
		got, err := FitClassificationTree(x, y, k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Rng = rand.New(rand.NewSource(seed))
		want := refFitClassificationTree(x, y, k, cfg)
		splits += sameClassTree(t, fmt.Sprintf("trial %d (n=%d d=%d k=%d)", trial, n, d, k), got, want)
	}
	if splits < 1000 {
		t.Fatalf("only %d splits across all trials; the inputs barely exercise the split search", splits)
	}
}

// sameClassTree fails unless the two trees match node for node, with the
// same feature, threshold bits, children and leaf-distribution bits, and
// returns the number of splits in want.
func sameClassTree(t *testing.T, label string, got, want *ClassificationTree) int {
	t.Helper()
	g, w := got.nodes, want.nodes
	if len(g) != len(w) {
		t.Fatalf("%s: %d nodes, want %d", label, len(g), len(w))
	}
	splits := 0
	for i := range w {
		same := g[i].feature == w[i].feature && g[i].left == w[i].left && g[i].right == w[i].right &&
			math.Float64bits(g[i].thresh) == math.Float64bits(w[i].thresh) && len(g[i].dist) == len(w[i].dist)
		for c := 0; same && c < len(w[i].dist); c++ {
			same = math.Float64bits(g[i].dist[c]) == math.Float64bits(w[i].dist[c])
		}
		if !same {
			t.Fatalf("%s node %d: got %+v, want %+v", label, i, g[i], w[i])
		}
		if w[i].feature >= 0 {
			splits++
		}
	}
	return splits
}

// refFitRandomForest is the forest FitRandomForest replaced, kept as its
// oracle: every tree is refFitClassificationTree on a copy of its
// bootstrap resample, with the bootstrap and tree seeds drawn from the
// forest's seed in the same order.
func refFitRandomForest(x [][]float64, y []int, numClasses int, cfg ForestConfig) []*ClassificationTree {
	if cfg.NumTrees == 0 {
		cfg.NumTrees = 100
	}
	if cfg.MaxDepth == 0 {
		cfg.MaxDepth = 16
	}
	if cfg.MinLeaf == 0 {
		cfg.MinLeaf = 1
	}
	d := len(x[0])
	if cfg.MaxFeatures == 0 {
		cfg.MaxFeatures = int(math.Sqrt(float64(d))) + 1
	}
	if cfg.MaxFeatures > d {
		cfg.MaxFeatures = d
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := len(x)
	var trees []*ClassificationTree
	for t := 0; t < cfg.NumTrees; t++ {
		bx, by := make([][]float64, n), make([]int, n)
		for i := range bx {
			j := rng.Intn(n)
			bx[i], by[i] = x[j], y[j]
		}
		trees = append(trees, refFitClassificationTree(bx, by, numClasses, ClassTreeConfig{
			MaxDepth:    cfg.MaxDepth,
			MinLeaf:     cfg.MinLeaf,
			MaxFeatures: cfg.MaxFeatures,
			Rng:         rand.New(rand.NewSource(rng.Int63())),
		}))
	}
	return trees
}

// TestRandomForestMatchesReference pins the forest (columns ranked once
// per fit, bootstraps kept as row indices, integer key sorts per node) to
// the reference forest of per-tree bootstrap copies and sort.Slice split
// sorts: every tree must match node for node, bit for bit. Inputs are
// heavily tied, with both signs of zero and duplicated rows, some sharing
// a backing slice and some copies with their own label.
func TestRandomForestMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	splits := 0
	for trial := 0; trial < 48; trial++ {
		n := 2 + rng.Intn(299)
		if trial < 4 {
			n = 2 + trial
		}
		k := 2 + trial%9
		d := 1 + rng.Intn(16)
		x, y := tiedProblem(n, d, k, rng)
		for _, row := range x {
			for f, v := range row {
				if v == 0 && rng.Intn(2) == 0 {
					row[f] = math.Copysign(0, -1)
				}
			}
		}
		for i := range x {
			switch j := rng.Intn(n); rng.Intn(8) {
			case 0:
				x[i], y[i] = x[j], y[j]
			case 1:
				x[i] = append([]float64(nil), x[j]...)
			}
		}
		cfg := ForestConfig{
			NumTrees: 1 + rng.Intn(6),
			MaxDepth: 1 + trial%16,
			MinLeaf:  1 + trial%3,
			Seed:     rng.Int63(),
		}
		if trial%2 == 1 {
			cfg.MaxFeatures = 1 + rng.Intn(d)
		}
		got, err := FitRandomForest(x, y, k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := refFitRandomForest(x, y, k, cfg)
		if len(got.trees) != len(want) {
			t.Fatalf("trial %d: %d trees, want %d", trial, len(got.trees), len(want))
		}
		for i := range want {
			label := fmt.Sprintf("trial %d (n=%d d=%d k=%d %+v) tree %d", trial, n, d, k, cfg, i)
			splits += sameClassTree(t, label, got.trees[i], want[i])
		}
	}
	if splits < 1000 {
		t.Fatalf("only %d splits across all trials; the inputs barely exercise the split search", splits)
	}
}

// TestForestNaNFeaturesFit checks that NaN feature values, which the
// bit-identity contract does not cover, still fit and predict without a
// panic: a forest and a single tree on columns that are partly and
// entirely NaN.
func TestForestNaNFeaturesFit(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	x, y := gaussBlobs(120, 4, 3, 3, rng)
	for i, row := range x {
		row[3] = math.NaN()
		if i%3 == 0 {
			row[0] = math.NaN()
		}
	}
	rf, err := FitRandomForest(x, y, 3, ForestConfig{NumTrees: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := FitClassificationTree(x, y, 3, ClassTreeConfig{Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []interface {
		PredictProba([][]float64) ([][]float64, error)
	}{rf, tr} {
		probs, err := m.PredictProba(x)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range probs {
			var s float64
			for _, v := range p {
				s += v
			}
			if math.Abs(s-1) > 1e-9 {
				t.Fatalf("%T row %d: probabilities sum to %v", m, i, s)
			}
		}
	}
}
