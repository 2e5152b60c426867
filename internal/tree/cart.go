// Package tree implements decision-tree learners: CART classification
// trees, bootstrap-aggregated random forests, and second-order gradient-
// boosted trees (an XGBoost-style learner). These provide the RF and XGB
// classifier families used in the paper's Table I.
package tree

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
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
	nodes []node
	width int // trained row width
}

// FitClassificationTree builds a tree on the given rows. It is the
// one-tree case of the forest's builder: the columns are ranked once, and
// the tree grows on every row once, in order.
func FitClassificationTree(x [][]float64, y []int, numClasses int, cfg ClassTreeConfig) (*ClassificationTree, error) {
	if err := checkFit(x, y, numClasses); err != nil {
		return nil, err
	}
	b := newClassBuilder(x, y, numClasses, cfg)
	rows := make([]int, len(x))
	for i := range rows {
		rows[i] = i
	}
	return b.fit(rows), nil
}

// checkFit validates a training set for every learner of the package:
// as many labels as rows, at least one row and one feature, every row as
// wide as the first, and every label a class in [0, numClasses).
func checkFit(x [][]float64, y []int, numClasses int) error {
	if len(x) == 0 || len(x) != len(y) {
		return fmt.Errorf("tree: %d rows, %d labels", len(x), len(y))
	}
	if numClasses < 2 {
		return fmt.Errorf("tree: numClasses %d must be >= 2", numClasses)
	}
	if len(x[0]) == 0 {
		return errors.New("tree: rows have no features")
	}
	if err := checkRows(x, len(x[0])); err != nil {
		return err
	}
	for i, c := range y {
		if c < 0 || c >= numClasses {
			return fmt.Errorf("tree: label %d at row %d out of range [0,%d)", c, i, numClasses)
		}
	}
	return nil
}

// checkRows rejects a row whose width is not width: a ragged training row,
// or a prediction row of another width than the model trained on.
func checkRows(x [][]float64, width int) error {
	for i, row := range x {
		if len(row) != width {
			return fmt.Errorf("tree: row %d has width %d, want %d", i, len(row), width)
		}
	}
	return nil
}

// rankColumns ranks the columns of x once: rank[f*n+i] is the dense rank
// of x[i][f] among feature f's distinct values in ascending order. Values
// are distinct as < sees them, so -0 and +0 share a rank; NaNs share rank
// 0, ahead of every number, so a NaN feature fits, but outside the
// bit-identity contract. Each column is ordered by an LSD radix sort of
// its orderKeys, one byte a pass, skipping the passes whose byte every key
// shares.
func rankColumns(x [][]float64) []uint32 {
	n, d := len(x), len(x[0])
	rank := make([]uint32, d*n)
	keys, keysTmp := make([]uint64, n), make([]uint64, n)
	order, orderTmp := make([]uint32, n), make([]uint32, n)
	var count [256]int
	for f := 0; f < d; f++ {
		for i, row := range x {
			keys[i], order[i] = orderKey(row[f]), uint32(i)
		}
		for shift := 0; shift < 64; shift += 8 {
			count = [256]int{}
			for _, k := range keys {
				count[k>>shift&255]++
			}
			if count[keys[0]>>shift&255] == n {
				continue
			}
			sum := 0
			for c, m := range count {
				count[c], sum = sum, sum+m
			}
			for p, k := range keys {
				dst := count[k>>shift&255]
				count[k>>shift&255]++
				keysTmp[dst], orderTmp[dst] = k, order[p]
			}
			keys, keysTmp = keysTmp, keys
			order, orderTmp = orderTmp, order
		}
		r := uint32(0)
		for p, i := range order {
			if p > 0 && keys[p] != keys[p-1] {
				r++
			}
			rank[f*n+int(i)] = r
		}
	}
	return rank
}

// orderKey maps v to an integer whose order is the order < gives numbers:
// -0 and +0 map to one key, and every NaN to 0, below every number.
func orderKey(v float64) uint64 {
	switch {
	case v != v:
		return 0
	case v == 0:
		v = 0 // +0
	}
	b := math.Float64bits(v)
	if b>>63 == 1 {
		return ^b
	}
	return b | 1<<63
}

// classBuilder grows the classification trees of one fit, a forest's or a
// single tree's, over the fit's ranked columns. Its scratch is sized once
// and reused by every node of every tree: each buffer is fully (re)written
// before use and consumed before the recursion into the children.
type classBuilder struct {
	x    [][]float64
	y    []int
	k    int
	cfg  ClassTreeConfig
	rank []uint32 // rankColumns(x)
	tree *ClassificationTree

	// A split scan sorts one key per node row, rank<<shift | label, so a
	// plain integer sort orders the rows by value, and each key carries
	// the row's label.
	shift      uint
	counts     []float64
	leftCounts []float64
	keys       []uint64
	part       []int
	perm       []int
}

// newClassBuilder ranks the columns of x and sizes the scratch for trees
// of up to len(x) rows, filling in cfg's defaults.
func newClassBuilder(x [][]float64, y []int, numClasses int, cfg ClassTreeConfig) *classBuilder {
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
	return &classBuilder{
		x: x, y: y, k: numClasses, cfg: cfg,
		rank:       rankColumns(x),
		shift:      uint(bits.Len(uint(numClasses - 1))),
		counts:     make([]float64, numClasses),
		leftCounts: make([]float64, numClasses),
		keys:       make([]uint64, len(x)),
		part:       make([]int, 0, len(x)),
		perm:       make([]int, d),
	}
}

// fit grows one tree on at most len(x) rows of x given by index, repeats
// allowed (a bootstrap resample), in that order. It reorders rows in place.
func (b *classBuilder) fit(rows []int) *ClassificationTree {
	b.tree = &ClassificationTree{width: len(b.x[0])}
	b.build(rows, 0)
	return b.tree
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
// Each feature's node rows are sorted by their rank keys; the order of
// rows with equal values is the label order, and need not be anything in
// particular: thresholds are only evaluated where the value changes, and
// the rows left of such a point are exactly those with a smaller value,
// whatever their order among themselves. The threshold is the midpoint of
// the two values around the best cut, read from the node's rows.
func (b *classBuilder) bestSplit(idx []int, counts []float64) (int, float64, bool) {
	n := float64(len(idx))
	parentImp := giniImpurity(counts, n)
	bestGain := 1e-12
	bestFeat := -1
	var bestLo, bestHi uint64 // the ranks either side of the best cut

	d := len(b.x[0])
	feats := permInto(b.cfg.Rng, d, b.perm)[:b.cfg.MaxFeatures]
	keys := b.keys[:len(idx)]
	leftCounts := b.leftCounts
	shift, label := b.shift, uint64(1)<<b.shift-1
	stride := len(b.x)
	for _, f := range feats {
		ranks := b.rank[f*stride : (f+1)*stride]
		for k, i := range idx {
			keys[k] = uint64(ranks[i])<<shift | uint64(b.y[i])
		}
		slices.Sort(keys)
		for c := range leftCounts {
			leftCounts[c] = 0
		}
		var nl float64
		for pos := 0; pos < len(keys)-1; pos++ {
			leftCounts[keys[pos]&label]++
			nl++
			r, next := keys[pos]>>shift, keys[pos+1]>>shift
			if r == next {
				continue
			}
			if int(nl) < b.cfg.MinLeaf || len(keys)-int(nl) < b.cfg.MinLeaf {
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
				bestLo, bestHi = r, next
			}
		}
	}
	if bestFeat < 0 {
		return -1, 0, false
	}
	// Rows of one rank hold the same value, up to the sign of a zero,
	// which the midpoint does not see: a zero only ever meets a nonzero
	// value there, and adds to it exactly.
	var v, next float64
	ranks := b.rank[bestFeat*stride : (bestFeat+1)*stride]
	for _, i := range idx {
		switch uint64(ranks[i]) {
		case bestLo:
			v = b.x[i][bestFeat]
		case bestHi:
			next = b.x[i][bestFeat]
		}
	}
	return bestFeat, (v + next) / 2, true
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
	if err := checkRows(x, t.width); err != nil {
		return nil, err
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
