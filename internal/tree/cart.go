// Package tree implements decision-tree learners: CART classification
// trees, bootstrap-aggregated random forests, and second-order gradient-
// boosted trees (an XGBoost-style learner). These provide the RF and XGB
// classifier families used in the paper's Table I.
package tree

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
)

// ErrNotTrained is returned when predicting with an unfitted model.
var ErrNotTrained = errors.New("tree: model not trained")

// node is one tree node (internal or leaf) in a flattened tree.
type node struct {
	feature int     // split feature; -1 for leaf
	thresh  float64 // split threshold (go left when value <= thresh)
	left    int     // child indices into the node slice
	right   int
	dist    []float64 // leaf class distribution (classification)
	value   float64   // leaf value (regression)
}

// ClassTreeConfig configures a CART classification tree.
type ClassTreeConfig struct {
	MaxDepth    int // default 12
	MinLeaf     int // minimum samples per leaf; default 1
	MaxFeatures int // features sampled per split; default all
	Rng         *rand.Rand
}

// ClassificationTree is a CART tree with gini splitting.
type ClassificationTree struct {
	nodes      []node
	numClasses int
}

// FitClassificationTree builds a tree on the given rows.
func FitClassificationTree(x [][]float64, y []int, numClasses int, cfg ClassTreeConfig) (*ClassificationTree, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, fmt.Errorf("tree: %d rows, %d labels", len(x), len(y))
	}
	if numClasses < 2 {
		return nil, fmt.Errorf("tree: numClasses %d must be >= 2", numClasses)
	}
	if cfg.MaxDepth == 0 {
		cfg.MaxDepth = 12
	}
	if cfg.MinLeaf == 0 {
		cfg.MinLeaf = 1
	}
	d := len(x[0])
	if cfg.MaxFeatures <= 0 || cfg.MaxFeatures > d {
		cfg.MaxFeatures = d
	}
	if cfg.Rng == nil {
		cfg.Rng = rand.New(rand.NewSource(0))
	}
	t := &ClassificationTree{numClasses: numClasses}
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	b := &classBuilder{
		x: x, y: y, k: numClasses, cfg: cfg, tree: t,
		counts:     make([]float64, numClasses),
		leftCounts: make([]float64, numClasses),
		pairs:      make([]keyedLabel, len(x)),
		part:       make([]int, 0, len(x)),
		perm:       make([]int, d),
	}
	b.build(idx, 0)
	return t, nil
}

type classBuilder struct {
	x    [][]float64
	y    []int
	k    int
	cfg  ClassTreeConfig
	tree *ClassificationTree

	// Split-scan scratch, shared across the whole build: every buffer is
	// fully (re)written before use and consumed before the recursion into
	// the children, so one instance of each suffices for the entire tree.
	counts     []float64
	leftCounts []float64
	pairs      []keyedLabel
	part       []int
	perm       []int
}

// keyedLabel is one row's value of the feature under scan, with its label.
type keyedLabel struct {
	v float64
	y int
}

// byValue orders pairs by value with the semantics of <: pairs whose
// values are not ordered by < (equal values, ±0) compare as ties.
func byValue(a, b keyedLabel) int {
	switch {
	case a.v < b.v:
		return -1
	case b.v < a.v:
		return 1
	}
	return 0
}

// build grows the subtree for idx and returns its node index. It may
// reorder idx in place (the stable left/right partition), which is safe:
// callers never read idx again after the call.
func (b *classBuilder) build(idx []int, depth int) int {
	counts := b.counts
	for c := range counts {
		counts[c] = 0
	}
	for _, i := range idx {
		counts[b.y[i]]++
	}
	pure := 0
	for _, c := range counts {
		if c > 0 {
			pure++
		}
	}
	if depth >= b.cfg.MaxDepth || pure <= 1 || len(idx) < 2*b.cfg.MinLeaf {
		return b.leaf(counts, len(idx))
	}
	feat, thresh, ok := b.bestSplit(idx, counts)
	if !ok {
		return b.leaf(counts, len(idx))
	}
	// Stable in-place partition: left-goers compact to the idx prefix in
	// order, right-goers stage through the shared scratch — the same
	// left/right orders the old append-based partition produced.
	nl := 0
	scratch := b.part[:0]
	for _, i := range idx {
		if b.x[i][feat] <= thresh {
			idx[nl] = i
			nl++
		} else {
			scratch = append(scratch, i)
		}
	}
	copy(idx[nl:], scratch)
	left, right := idx[:nl], idx[nl:]
	if len(left) < b.cfg.MinLeaf || len(right) < b.cfg.MinLeaf {
		return b.leaf(counts, len(idx))
	}
	me := len(b.tree.nodes)
	b.tree.nodes = append(b.tree.nodes, node{feature: feat, thresh: thresh})
	l := b.build(left, depth+1)
	r := b.build(right, depth+1)
	b.tree.nodes[me].left = l
	b.tree.nodes[me].right = r
	return me
}

func (b *classBuilder) leaf(counts []float64, n int) int {
	dist := make([]float64, b.k)
	if n > 0 {
		for c := range counts {
			dist[c] = counts[c] / float64(n)
		}
	}
	b.tree.nodes = append(b.tree.nodes, node{feature: -1, dist: dist})
	return len(b.tree.nodes) - 1
}

// bestSplit scans a random feature subset for the gini-optimal threshold.
func (b *classBuilder) bestSplit(idx []int, counts []float64) (int, float64, bool) {
	n := float64(len(idx))
	parentImp := giniImpurity(counts, n)
	bestGain := 1e-12
	bestFeat, bestThresh := -1, 0.0

	d := len(b.x[0])
	feats := permInto(b.cfg.Rng, d, b.perm)[:b.cfg.MaxFeatures]
	pairs := b.pairs[:len(idx)]
	leftCounts := b.leftCounts
	for _, f := range feats {
		for k, i := range idx {
			pairs[k] = keyedLabel{b.x[i][f], b.y[i]}
		}
		// The order of tied values is unspecified, and need not be fixed:
		// thresholds are only evaluated where the value changes, and the
		// rows left of such a point are exactly those with a smaller
		// value, whatever their order among themselves.
		slices.SortFunc(pairs, byValue)
		for c := range leftCounts {
			leftCounts[c] = 0
		}
		var nl float64
		for pos := 0; pos < len(pairs)-1; pos++ {
			leftCounts[pairs[pos].y]++
			nl++
			v, next := pairs[pos].v, pairs[pos+1].v
			if v == next {
				continue
			}
			if int(nl) < b.cfg.MinLeaf || len(pairs)-int(nl) < b.cfg.MinLeaf {
				continue
			}
			nr := n - nl
			var impL, impR float64
			impL = giniImpurityLeft(leftCounts, nl)
			impR = giniImpurityRight(counts, leftCounts, nr)
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

// permInto fills buf with a pseudo-random permutation of [0, n), consuming
// exactly the same rng draws — and producing exactly the same permutation —
// as rng.Perm(n), so feature subsampling is unchanged by the buffer reuse.
func permInto(rng *rand.Rand, n int, buf []int) []int {
	if cap(buf) < n {
		buf = make([]int, n)
	}
	buf = buf[:n]
	// Mirrors rand.Perm exactly, including the i == 0 iteration whose
	// Intn(1) draw advances the rng state.
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		buf[i] = buf[j]
		buf[j] = i
	}
	return buf
}

func giniImpurity(counts []float64, n float64) float64 {
	if n == 0 {
		return 0
	}
	imp := 1.0
	for _, c := range counts {
		p := c / n
		imp -= p * p
	}
	return imp
}

func giniImpurityLeft(left []float64, nl float64) float64 {
	return giniImpurity(left, nl)
}

func giniImpurityRight(total, left []float64, nr float64) float64 {
	if nr == 0 {
		return 0
	}
	imp := 1.0
	for c := range total {
		p := (total[c] - left[c]) / nr
		imp -= p * p
	}
	return imp
}

// PredictProba returns the class distribution for each row.
func (t *ClassificationTree) PredictProba(x [][]float64) ([][]float64, error) {
	if len(t.nodes) == 0 {
		return nil, ErrNotTrained
	}
	out := make([][]float64, len(x))
	for i, row := range x {
		out[i] = append([]float64(nil), t.traverse(row).dist...)
	}
	return out, nil
}

func (t *ClassificationTree) traverse(row []float64) *node {
	cur := 0
	for {
		nd := &t.nodes[cur]
		if nd.feature < 0 {
			return nd
		}
		if row[nd.feature] <= nd.thresh {
			cur = nd.left
		} else {
			cur = nd.right
		}
	}
}

// NumNodes reports the tree size (useful in tests and benchmarks).
func (t *ClassificationTree) NumNodes() int { return len(t.nodes) }
