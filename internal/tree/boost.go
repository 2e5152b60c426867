package tree

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// BoostConfig configures gradient-boosted trees.
type BoostConfig struct {
	Rounds       int     // boosting rounds; default 60
	MaxDepth     int     // default 4
	LearningRate float64 // shrinkage; default 0.2
	Lambda       float64 // L2 leaf regularization; default 1
	Subsample    float64 // row subsampling per round; default 0.8
	ColSample    float64 // column subsampling per tree; default 0.5
	MinChildHess float64 // minimum hessian per child; default 1
	Seed         int64
}

func (c *BoostConfig) applyDefaults() {
	if c.Rounds == 0 {
		c.Rounds = 60
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = 4
	}
	if c.LearningRate == 0 {
		c.LearningRate = 0.2
	}
	if c.Lambda == 0 {
		c.Lambda = 1
	}
	if c.Subsample == 0 {
		c.Subsample = 0.8
	}
	if c.ColSample == 0 {
		c.ColSample = 0.5
	}
	if c.MinChildHess == 0 {
		c.MinChildHess = 1
	}
}

// GradientBoosting is a second-order boosted-tree classifier with a softmax
// objective (one regression tree per class per round), in the style of
// XGBoost.
type GradientBoosting struct {
	trees      [][]*regressionTree // [round][class]
	lr         float64
	numClasses int
}

// FitGradientBoosting trains the boosted ensemble.
func FitGradientBoosting(x [][]float64, y []int, numClasses int, cfg BoostConfig) (*GradientBoosting, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, fmt.Errorf("tree: %d rows, %d labels", len(x), len(y))
	}
	if numClasses < 2 {
		return nil, fmt.Errorf("tree: numClasses %d must be >= 2", numClasses)
	}
	cfg.applyDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	n := len(x)
	gb := &GradientBoosting{lr: cfg.LearningRate, numClasses: numClasses}
	// Raw scores per sample per class.
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

	// Presort every feature once; the trees of every round and class take
	// their per-node segments from these orders through one builder.
	b := newRegBuilder(x, presortColumns(x), cfg)

	for round := 0; round < cfg.Rounds; round++ {
		// Softmax gradients/hessians.
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
		// Row subsample shared by the round.
		rows := subsampleRows(n, cfg.Subsample, rng)
		roundTrees := make([]*regressionTree, numClasses)
		for c := 0; c < numClasses; c++ {
			rt := b.fit(grads[c], hess[c], rows, rng.Int63())
			roundTrees[c] = rt
			for i := 0; i < n; i++ {
				scores[i][c] += cfg.LearningRate * rt.predict(x[i])
			}
		}
		gb.trees = append(gb.trees, roundTrees)
	}
	return gb, nil
}

func subsampleRows(n int, frac float64, rng *rand.Rand) []int {
	if frac >= 1 {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	k := int(float64(n) * frac)
	if k < 1 {
		k = 1
	}
	return rng.Perm(n)[:k]
}

// PredictProba returns softmax probabilities of the boosted scores.
func (gb *GradientBoosting) PredictProba(x [][]float64) ([][]float64, error) {
	if len(gb.trees) == 0 {
		return nil, ErrNotTrained
	}
	out := make([][]float64, len(x))
	for i, row := range x {
		scores := make([]float64, gb.numClasses)
		for _, roundTrees := range gb.trees {
			for c, rt := range roundTrees {
				scores[c] += gb.lr * rt.predict(row)
			}
		}
		maxV := scores[0]
		for _, v := range scores[1:] {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		p := make([]float64, gb.numClasses)
		for c, v := range scores {
			p[c] = math.Exp(v - maxV)
			sum += p[c]
		}
		for c := range p {
			p[c] /= sum
		}
		out[i] = p
	}
	return out, nil
}

// NumRounds reports the number of boosting rounds trained.
func (gb *GradientBoosting) NumRounds() int { return len(gb.trees) }

// regressionTree is a second-order regression tree on (grad, hess) pairs.
type regressionTree struct {
	nodes []node
}

// sortedColumns holds every feature's presorted order: feature f's row
// indices ordered by value at rows[f*n:(f+1)*n], and the values in that
// order at vals[f*n:(f+1)*n].
type sortedColumns struct {
	n    int
	rows []int32
	vals []float64
}

func presortColumns(x [][]float64) sortedColumns {
	n, d := len(x), len(x[0])
	s := sortedColumns{n: n, rows: make([]int32, d*n), vals: make([]float64, d*n)}
	col := make([]float64, n)
	for f := 0; f < d; f++ {
		idx := s.rows[f*n : (f+1)*n]
		for i := range idx {
			idx[i] = int32(i)
			col[i] = x[i][f]
		}
		sort.Slice(idx, func(a, b int) bool { return col[idx[a]] < col[idx[b]] })
		vals := s.vals[f*n : (f+1)*n]
		for p, i := range idx {
			vals[p] = col[i]
		}
	}
	return s
}

// regBuilder grows the regression trees of one FitGradientBoosting call.
// Its scratch is sized once and reused by every tree of every round and
// class.
//
// A tree filters each sampled column's presorted order to the round's
// subsample, giving one segment of m (row, value) entries per column.
// Every node owns the same range [lo, hi) of each segment, which holds
// exactly its rows in presorted order: a split partitions each segment
// stably, left-goers first. The split scan therefore visits a node's rows
// in the order a filtered scan of the whole presorted column would,
// accumulates the same gradient sums, and grows the same tree bit for bit.
type regBuilder struct {
	x      [][]float64
	sorted sortedColumns
	nCols  int // features sampled per tree

	maxDepth     int
	lambda       float64
	minChildHess float64

	// The tree being grown.
	grad, hess []float64
	cols       []int // sampled features in draw order; segment j is cols[j]
	m          int   // rows in the subsample, the length of every segment
	tree       *regressionTree

	rng      *rand.Rand
	perm     []int
	inSample []bool // by row; all false between trees
	goLeft   []bool // by row; set for a node's rows when it splits
	// idx holds the subsample in draw order, partitioned per node like the
	// segments, so the sums over idx[lo:hi] add a node's rows in the same
	// order as appending its rows to fresh left and right slices would.
	idx      []int
	part     []int
	segRows  []int32   // segment j at [j*m, (j+1)*m)
	segVals  []float64 // values matching segRows
	partRows []int32
	partVals []float64
}

func newRegBuilder(x [][]float64, sorted sortedColumns, cfg BoostConfig) *regBuilder {
	n, d := len(x), len(x[0])
	nCols := int(float64(d) * cfg.ColSample)
	if nCols < 1 {
		nCols = 1
	}
	return &regBuilder{
		x: x, sorted: sorted, nCols: nCols,
		maxDepth: cfg.MaxDepth, lambda: cfg.Lambda, minChildHess: cfg.MinChildHess,
		rng:      rand.New(rand.NewSource(0)),
		perm:     make([]int, d),
		inSample: make([]bool, n),
		goLeft:   make([]bool, n),
		idx:      make([]int, n),
		part:     make([]int, 0, n),
		segRows:  make([]int32, nCols*n),
		segVals:  make([]float64, nCols*n),
		partRows: make([]int32, 0, n),
		partVals: make([]float64, 0, n),
	}
}

// fit grows one tree on the subsample rows, which it leaves unmodified.
// The tree's column sample comes from an rng seeded with seed, drawing
// exactly what rand.New(rand.NewSource(seed)).Perm would.
func (b *regBuilder) fit(grad, hess []float64, rows []int, seed int64) *regressionTree {
	b.rng.Seed(seed)
	b.cols = permInto(b.rng, len(b.x[0]), b.perm)[:b.nCols]
	b.grad, b.hess = grad, hess
	b.tree = &regressionTree{}
	m := len(rows)
	b.m = m
	copy(b.idx, rows)

	for _, i := range rows {
		b.inSample[i] = true
	}
	n := b.sorted.n
	for j, f := range b.cols {
		vals := b.sorted.vals[f*n : (f+1)*n]
		segRows := b.segRows[j*m : (j+1)*m]
		segVals := b.segVals[j*m : (j+1)*m]
		k := 0
		for p, i := range b.sorted.rows[f*n : (f+1)*n] {
			if b.inSample[i] {
				segRows[k], segVals[k] = i, vals[p]
				k++
			}
		}
	}
	for _, i := range rows {
		b.inSample[i] = false
	}

	b.build(0, m, 0)
	return b.tree
}

// build grows the subtree over the node range [lo, hi) and returns its
// node index.
func (b *regBuilder) build(lo, hi, depth int) int {
	idx := b.idx[lo:hi]
	var sumG, sumH float64
	for _, i := range idx {
		sumG += b.grad[i]
		sumH += b.hess[i]
	}
	if depth >= b.maxDepth || len(idx) < 2 {
		return b.leaf(sumG, sumH)
	}
	feat, thresh, ok := b.bestSplit(lo, hi, sumG, sumH)
	if !ok {
		return b.leaf(sumG, sumH)
	}
	// Stable in-place partition, as in classBuilder: left-goers compact to
	// the front of idx in order, right-goers stage through b.part.
	nl := 0
	right := b.part[:0]
	for _, i := range idx {
		left := b.x[i][feat] <= thresh
		b.goLeft[i] = left
		if left {
			idx[nl] = i
			nl++
		} else {
			right = append(right, i)
		}
	}
	copy(idx[nl:], right)
	if nl == 0 || nl == len(idx) {
		return b.leaf(sumG, sumH)
	}
	// Leaf children never scan their segments.
	if depth+1 < b.maxDepth {
		b.partitionSegments(lo, hi, nl)
	}
	me := len(b.tree.nodes)
	b.tree.nodes = append(b.tree.nodes, node{feature: feat, thresh: thresh})
	l := b.build(lo, lo+nl, depth+1)
	r := b.build(lo+nl, hi, depth+1)
	b.tree.nodes[me].left = l
	b.tree.nodes[me].right = r
	return me
}

// partitionSegments stably splits every segment's node range [lo, hi)
// into its nl left-goers followed by its right-goers.
func (b *regBuilder) partitionSegments(lo, hi, nl int) {
	m := b.m
	for j := range b.cols {
		rows := b.segRows[j*m+lo : j*m+hi]
		vals := b.segVals[j*m+lo : j*m+hi]
		k := 0
		partRows, partVals := b.partRows[:0], b.partVals[:0]
		for p, i := range rows {
			if b.goLeft[i] {
				rows[k], vals[k] = i, vals[p]
				k++
			} else {
				partRows = append(partRows, i)
				partVals = append(partVals, vals[p])
			}
		}
		copy(rows[nl:], partRows)
		copy(vals[nl:], partVals)
	}
}

func (b *regBuilder) leaf(sumG, sumH float64) int {
	v := -sumG / (sumH + b.lambda)
	b.tree.nodes = append(b.tree.nodes, node{feature: -1, value: v})
	return len(b.tree.nodes) - 1
}

// bestSplit maximizes the XGBoost structure gain over the node's range of
// every sampled column's segment, scanned in presorted order.
func (b *regBuilder) bestSplit(lo, hi int, sumG, sumH float64) (int, float64, bool) {
	lambda, minHess := b.lambda, b.minChildHess
	parent := sumG * sumG / (sumH + lambda)
	bestGain := 1e-9
	bestFeat, bestThresh := -1, 0.0
	m := b.m
	for j, f := range b.cols {
		rows := b.segRows[j*m+lo : j*m+hi]
		vals := b.segVals[j*m+lo : j*m+hi]
		var gl, hl float64
		gl += b.grad[rows[0]]
		hl += b.hess[rows[0]]
		for p := 1; p < len(rows); p++ {
			// Candidate cut between positions p-1 and p.
			v, next := vals[p-1], vals[p]
			if v != next && hl >= minHess && sumH-hl >= minHess {
				gr := sumG - gl
				hr := sumH - hl
				gain := gl*gl/(hl+lambda) + gr*gr/(hr+lambda) - parent
				if gain > bestGain {
					bestGain = gain
					bestFeat = f
					bestThresh = (v + next) / 2
				}
			}
			i := rows[p]
			gl += b.grad[i]
			hl += b.hess[i]
		}
	}
	return bestFeat, bestThresh, bestFeat >= 0
}

func (t *regressionTree) predict(row []float64) float64 {
	cur := 0
	for {
		nd := &t.nodes[cur]
		if nd.feature < 0 {
			return nd.value
		}
		if row[nd.feature] <= nd.thresh {
			cur = nd.left
		} else {
			cur = nd.right
		}
	}
}
