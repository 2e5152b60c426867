package tree

import (
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
	t := &ClassificationTree{numClasses: numClasses}
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
		g, w := got.nodes, want.nodes
		if len(g) != len(w) {
			t.Fatalf("trial %d (n=%d d=%d k=%d): %d nodes, want %d", trial, n, d, k, len(g), len(w))
		}
		for i := range w {
			same := g[i].feature == w[i].feature && g[i].left == w[i].left && g[i].right == w[i].right &&
				math.Float64bits(g[i].thresh) == math.Float64bits(w[i].thresh) && len(g[i].dist) == len(w[i].dist)
			for c := 0; same && c < len(w[i].dist); c++ {
				same = math.Float64bits(g[i].dist[c]) == math.Float64bits(w[i].dist[c])
			}
			if !same {
				t.Fatalf("trial %d (n=%d d=%d k=%d) node %d: got %+v, want %+v", trial, n, d, k, i, g[i], w[i])
			}
			if w[i].feature >= 0 {
				splits++
			}
		}
	}
	if splits < 1000 {
		t.Fatalf("only %d splits across all trials; the inputs barely exercise the split search", splits)
	}
}
