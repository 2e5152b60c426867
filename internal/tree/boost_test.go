package tree

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refFitGradientBoosting is the filter-scan boosting fit kept as the oracle
// for the segment-partitioned builder: each split scan walks every sampled
// feature's whole presorted order and skips rows outside the node, and a
// split appends the node's rows to fresh left and right slices.
func refFitGradientBoosting(x [][]float64, y []int, numClasses int, cfg BoostConfig) *GradientBoosting {
	cfg.applyDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := len(x)
	gb := &GradientBoosting{lr: cfg.LearningRate, numClasses: numClasses}
	scores := make([][]float64, n)
	for i := range scores {
		scores[i] = make([]float64, numClasses)
	}
	probs := make([]float64, numClasses)
	grads := make([][]float64, numClasses)
	hess := make([][]float64, numClasses)
	for c := range grads {
		grads[c] = make([]float64, n)
		hess[c] = make([]float64, n)
	}
	presorted := refPresortColumns(x)
	for round := 0; round < cfg.Rounds; round++ {
		for i := 0; i < n; i++ {
			maxV := scores[i][0]
			for _, v := range scores[i][1:] {
				if v > maxV {
					maxV = v
				}
			}
			var sum float64
			for c := 0; c < numClasses; c++ {
				probs[c] = math.Exp(scores[i][c] - maxV)
				sum += probs[c]
			}
			for c := 0; c < numClasses; c++ {
				p := probs[c] / sum
				g := p
				if y[i] == c {
					g -= 1
				}
				grads[c][i] = g
				hess[c][i] = math.Max(p*(1-p), 1e-6)
			}
		}
		rows := subsampleRows(n, cfg.Subsample, rng)
		roundTrees := make([]*regressionTree, numClasses)
		for c := 0; c < numClasses; c++ {
			rt := refFitRegressionTree(x, presorted, grads[c], hess[c], rows, cfg,
				rand.New(rand.NewSource(rng.Int63())))
			roundTrees[c] = rt
			for i := 0; i < n; i++ {
				scores[i][c] += cfg.LearningRate * rt.predict(x[i])
			}
		}
		gb.trees = append(gb.trees, roundTrees)
	}
	return gb
}

func refPresortColumns(x [][]float64) [][]int32 {
	n, d := len(x), len(x[0])
	out := make([][]int32, d)
	for f := 0; f < d; f++ {
		idx := make([]int32, n)
		for i := range idx {
			idx[i] = int32(i)
		}
		col := make([]float64, n)
		for i := range x {
			col[i] = x[i][f]
		}
		sort.Slice(idx, func(a, b int) bool { return col[idx[a]] < col[idx[b]] })
		out[f] = idx
	}
	return out
}

type refRegBuilder struct {
	x          [][]float64
	presorted  [][]int32
	grad, hess []float64
	cfg        BoostConfig
	cols       []int
	tree       *regressionTree
	inNode     []bool
}

func refFitRegressionTree(x [][]float64, presorted [][]int32, grad, hess []float64, rows []int, cfg BoostConfig, rng *rand.Rand) *regressionTree {
	d := len(x[0])
	nCols := int(float64(d) * cfg.ColSample)
	if nCols < 1 {
		nCols = 1
	}
	b := &refRegBuilder{
		x: x, presorted: presorted, grad: grad, hess: hess, cfg: cfg,
		cols: rng.Perm(d)[:nCols], tree: &regressionTree{}, inNode: make([]bool, len(x)),
	}
	b.build(rows, 0)
	return b.tree
}

func (b *refRegBuilder) build(idx []int, depth int) int {
	var sumG, sumH float64
	for _, i := range idx {
		sumG += b.grad[i]
		sumH += b.hess[i]
	}
	if depth >= b.cfg.MaxDepth || len(idx) < 2 {
		return b.leaf(sumG, sumH)
	}
	feat, thresh, ok := b.bestSplit(idx, sumG, sumH)
	if !ok {
		return b.leaf(sumG, sumH)
	}
	var left, right []int
	for _, i := range idx {
		if b.x[i][feat] <= thresh {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return b.leaf(sumG, sumH)
	}
	me := len(b.tree.nodes)
	b.tree.nodes = append(b.tree.nodes, node{feature: feat, thresh: thresh})
	l := b.build(left, depth+1)
	r := b.build(right, depth+1)
	b.tree.nodes[me].left = l
	b.tree.nodes[me].right = r
	return me
}

func (b *refRegBuilder) leaf(sumG, sumH float64) int {
	b.tree.nodes = append(b.tree.nodes, node{feature: -1, value: -sumG / (sumH + b.cfg.Lambda)})
	return len(b.tree.nodes) - 1
}

func (b *refRegBuilder) bestSplit(idx []int, sumG, sumH float64) (int, float64, bool) {
	lambda := b.cfg.Lambda
	parent := sumG * sumG / (sumH + lambda)
	bestGain := 1e-9
	bestFeat, bestThresh := -1, 0.0
	for _, i := range idx {
		b.inNode[i] = true
	}
	defer func() {
		for _, i := range idx {
			b.inNode[i] = false
		}
	}()
	for _, f := range b.cols {
		var gl, hl float64
		seen, prev := 0, -1
		for _, ri32 := range b.presorted[f] {
			i := int(ri32)
			if !b.inNode[i] {
				continue
			}
			if prev >= 0 {
				v, next := b.x[prev][f], b.x[i][f]
				if v != next && hl >= b.cfg.MinChildHess && sumH-hl >= b.cfg.MinChildHess {
					gr := sumG - gl
					hr := sumH - hl
					gain := gl*gl/(hl+lambda) + gr*gr/(hr+lambda) - parent
					if gain > bestGain {
						bestGain = gain
						bestFeat = f
						bestThresh = (v + next) / 2
					}
				}
			}
			gl += b.grad[i]
			hl += b.hess[i]
			prev = i
			seen++
			if seen == len(idx) {
				break
			}
		}
	}
	return bestFeat, bestThresh, bestFeat >= 0
}

// tiedProblem draws n rows of d features with heavy ties: most columns take
// one to five levels, the rest are continuous, and labels are uniform over
// k classes.
func tiedProblem(n, d, k int, rng *rand.Rand) ([][]float64, []int) {
	levels := make([]int, d)
	for f := range levels {
		levels[f] = rng.Intn(6) // 0: continuous
	}
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		row := make([]float64, d)
		for f, l := range levels {
			if l == 0 {
				row[f] = rng.NormFloat64()
			} else {
				row[f] = float64(rng.Intn(l)) / 2
			}
		}
		x[i] = row
		y[i] = rng.Intn(k)
	}
	return x, y
}

// TestGradientBoostingMatchesReference pins the segment-partitioned split
// search to the filter-scan reference: every tree must match node for node,
// with the same feature, threshold bits, leaf-value bits and children.
func TestGradientBoostingMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	splits := 0
	for trial := 0; trial < 96; trial++ {
		n := 2 + rng.Intn(499)
		if trial < 6 {
			n = 2 + trial
		}
		k := 2 + trial%15
		x, y := tiedProblem(n, 1+rng.Intn(12), k, rng)
		cfg := BoostConfig{
			Rounds:       1 + rng.Intn(4),
			MaxDepth:     1 + trial%6,
			Subsample:    1,
			ColSample:    1,
			MinChildHess: []float64{1e-3, 0.05, 1}[rng.Intn(3)],
			Seed:         rng.Int63(),
		}
		if trial/6%2 == 0 {
			cfg.Subsample = []float64{0.5, 0.8}[rng.Intn(2)]
			cfg.ColSample = []float64{0.3, 0.6}[rng.Intn(2)]
		}
		got, err := FitGradientBoosting(x, y, k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := refFitGradientBoosting(x, y, k, cfg)
		if len(got.trees) != len(want.trees) {
			t.Fatalf("trial %d: %d rounds, want %d", trial, len(got.trees), len(want.trees))
		}
		for r := range want.trees {
			for c := range want.trees[r] {
				g, w := got.trees[r][c].nodes, want.trees[r][c].nodes
				if len(g) != len(w) {
					t.Fatalf("trial %d (n=%d k=%d %+v) round %d class %d: %d nodes, want %d",
						trial, n, k, cfg, r, c, len(g), len(w))
				}
				for i := range w {
					if g[i].feature != w[i].feature || g[i].left != w[i].left || g[i].right != w[i].right ||
						math.Float64bits(g[i].thresh) != math.Float64bits(w[i].thresh) ||
						math.Float64bits(g[i].value) != math.Float64bits(w[i].value) {
						t.Fatalf("trial %d (n=%d k=%d %+v) round %d class %d node %d: got %+v, want %+v",
							trial, n, k, cfg, r, c, i, g[i], w[i])
					}
					if w[i].feature >= 0 {
						splits++
					}
				}
			}
		}
	}
	if splits < 1000 {
		t.Fatalf("only %d splits across all trials; the inputs barely exercise the split search", splits)
	}
}

var benchBoost *GradientBoosting

// BenchmarkFitGradientBoosting fits the XGB classifier of a CMT Table I cell
// at quick scale: ~1,400 augmented rows x 442 features, 16 classes, 10 rounds
// of depth-5 trees.
func BenchmarkFitGradientBoosting(b *testing.B) {
	x, y := gaussBlobs(1400, 442, 16, 1.5, rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gb, err := FitGradientBoosting(x, y, 16, BoostConfig{Rounds: 10, MaxDepth: 5, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		benchBoost = gb
	}
}
