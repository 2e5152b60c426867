package tree

import (
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
	width      int // trained row width
}

// FitGradientBoosting trains the boosted ensemble.
func FitGradientBoosting(x [][]float64, y []int, numClasses int, cfg BoostConfig) (*GradientBoosting, error) {
	if err := checkFit(x, y, numClasses); err != nil {
		return nil, err
	}
	cfg.applyDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	n := len(x)
	gb := &GradientBoosting{lr: cfg.LearningRate, numClasses: numClasses, width: len(x[0])}
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
			softmaxInto(probs, scores[i])
			for c, p := range probs {
				g := p
				if y[i] == c {
					g -= 1
				}
				grads[c][i] = g
				hess[c][i] = math.Max(p*(1-p), 1e-6)
			}
		}
		// Row subsample shared by the round.
		b.sample(subsampleRows(n, cfg.Subsample, rng))
		roundTrees := make([]*regressionTree, numClasses)
		for c := 0; c < numClasses; c++ {
			rt := b.fit(grads[c], hess[c], rng.Int63())
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
	if err := checkRows(x, gb.width); err != nil {
		return nil, err
	}
	out := make([][]float64, len(x))
	for i, row := range x {
		scores := make([]float64, gb.numClasses)
		for _, roundTrees := range gb.trees {
			for c, rt := range roundTrees {
				scores[c] += gb.lr * rt.predict(row)
			}
		}
		out[i] = make([]float64, gb.numClasses)
		softmaxInto(out[i], scores)
	}
	return out, nil
}

// softmaxInto writes the softmax of scores into p: exp(s - max) per class,
// each divided by their sum taken in class order.
func softmaxInto(p, scores []float64) {
	maxV := scores[0]
	for _, v := range scores[1:] {
		if v > maxV {
			maxV = v
		}
	}
	var sum float64
	for c, v := range scores {
		p[c] = math.Exp(v - maxV)
		sum += p[c]
	}
	for c := range p {
		p[c] /= sum
	}
}

// regressionTree is a second-order regression tree on (grad, hess) pairs.
type regressionTree struct {
	nodes []node
}

// sortedColumns holds every feature's presorted order as packed entries
// rank<<32 | row: feature f's rows ordered by value at segs[f*n:(f+1)*n],
// each with the dense rank of its value along that order. The rank steps
// up wherever the value changes (!=) from the entry before, so for finite
// values two entries anywhere in the order hold equal values exactly when
// their ranks are equal. An entry is one word, so the filters and
// partitions below move two thirds of the bytes of an (int32 row, float64
// value) pair; a value is read back from x only for a threshold.
type sortedColumns struct {
	n    int
	segs []uint64
}

// entryRow and entryRank unpack a sortedColumns entry.
func entryRow(e uint64) uint32  { return uint32(e) }
func entryRank(e uint64) uint32 { return uint32(e >> 32) }

func presortColumns(x [][]float64) sortedColumns {
	n, d := len(x), len(x[0])
	s := sortedColumns{n: n, segs: make([]uint64, d*n)}
	idx := make([]int32, n)
	col := make([]float64, n)
	for f := 0; f < d; f++ {
		for i := range idx {
			idx[i] = int32(i)
			col[i] = x[i][f]
		}
		sort.Slice(idx, func(a, b int) bool { return col[idx[a]] < col[idx[b]] })
		var rank uint64
		for p, i := range idx {
			if p > 0 && col[idx[p-1]] != col[i] {
				rank++
			}
			s.segs[f*n+p] = rank<<32 | uint64(i)
		}
	}
	return s
}

// regBuilder grows the regression trees of one FitGradientBoosting call.
// Its scratch is sized once and reused by every tree of every round and
// class.
//
// A round filters each column's presorted order to its subsample once,
// the first time one of its trees samples the column, giving one segment
// of m entries per column. A tree's root scans those round segments; its
// first split partitions each sampled column's round segment into the
// tree's own segment j, and every later split partitions the tree's
// segments in place. Every node owns the same range [lo, hi) of each
// segment, which holds exactly its rows in presorted order: a split
// partitions stably, left-goers first. The split scan therefore visits a
// node's rows in the order a filtered scan of the whole presorted column
// would, accumulates the same gradient sums, and grows the same tree bit
// for bit.
type regBuilder struct {
	x      [][]float64
	sorted sortedColumns
	nCols  int // features sampled per tree

	maxDepth     int
	lambda       float64
	minChildHess float64

	// The round's subsample.
	rows     []int
	m        int     // rows in the subsample, the length of every segment
	inSample []uint8 // by row, 0 or 1: 1 for the subsample's rows
	round    int     // rounds sampled so far
	// Column f's round segment lives at [f*(m+1), f*(m+1)+m), filtered in
	// the round filteredIn[f]; the slot after it takes the filter's
	// unconditional store after its last row.
	roundSegs  []uint64
	filteredIn []int

	// The tree being grown.
	grad, hess []float64
	cols       []int // sampled features in draw order; segment j is cols[j]
	tree       *regressionTree

	rng    *rand.Rand
	perm   []int
	goLeft []uint8 // by row, 0 or 1; set for a node's rows when it splits
	// idx holds the subsample in draw order, partitioned per node like the
	// segments, so the sums over idx[lo:hi] add a node's rows in the same
	// order as appending its rows to fresh left and right slices would.
	idx  []int
	part []int
	// The tree's segment j lives at [j*m, (j+1)*m).
	segs     []uint64
	partSegs []uint64 // a node's right-goers, staged (length n)
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
		inSample:   make([]uint8, n),
		filteredIn: make([]int, d),
		rng:        rand.New(rand.NewSource(0)),
		perm:       make([]int, d),
		goLeft:     make([]uint8, n),
		idx:        make([]int, n),
		part:       make([]int, 0, n),
		partSegs:   make([]uint64, n),
	}
}

// sample starts a round on the subsample rows, which the round's trees
// grow on and leave unmodified. The segments are sized for the first
// round's subsample; every later one of a fit has the same size.
func (b *regBuilder) sample(rows []int) {
	for _, i := range b.rows {
		b.inSample[i] = 0
	}
	for _, i := range rows {
		b.inSample[i] = 1
	}
	b.rows, b.m = rows, len(rows)
	b.round++
	if d := len(b.filteredIn); len(b.roundSegs) != d*(b.m+1) {
		b.roundSegs = make([]uint64, d*(b.m+1))
		b.segs = make([]uint64, b.nCols*b.m)
	}
}

// roundSegment returns column f's round segment, filtering it first if no
// tree of the round has sampled f yet.
func (b *regBuilder) roundSegment(f int) []uint64 {
	m, n := b.m, b.sorted.n
	seg := b.roundSegs[f*(m+1) : (f+1)*(m+1)]
	if b.filteredIn[f] != b.round {
		b.filteredIn[f] = b.round
		// The filter stores every entry and advances only past in-sample
		// ones: whether a row is in the sample is random in presorted
		// order, so a branch on it would mispredict half the time. The
		// store after the last in-sample row lands in the slack slot.
		k := 0
		for _, e := range b.sorted.segs[f*n : (f+1)*n] {
			seg[k] = e
			k += int(b.inSample[entryRow(e)])
		}
	}
	return seg[:m]
}

// segment returns the node range [lo, hi) of segment j for a node of the
// given depth: the root reads the round segment of column cols[j], every
// other node the tree's segment j.
func (b *regBuilder) segment(j, lo, hi, depth int) []uint64 {
	if depth == 0 {
		return b.roundSegment(b.cols[j])[lo:hi]
	}
	return b.segs[j*b.m+lo : j*b.m+hi]
}

// fit grows one tree on the round's subsample. The tree's column sample
// comes from an rng seeded with seed, drawing exactly what
// rand.New(rand.NewSource(seed)).Perm would.
func (b *regBuilder) fit(grad, hess []float64, seed int64) *regressionTree {
	b.rng.Seed(seed)
	b.cols = permInto(b.rng, len(b.x[0]), b.perm)[:b.nCols]
	b.grad, b.hess = grad, hess
	b.tree = &regressionTree{}
	copy(b.idx, b.rows)
	sumG, sumH := b.sums(0, b.m)
	b.build(0, b.m, 0, sumG, sumH)
	return b.tree
}

// sums adds the gradients and hessians of the node range [lo, hi) in idx
// order, the order every node's sums are taken in.
func (b *regBuilder) sums(lo, hi int) (sumG, sumH float64) {
	for _, i := range b.idx[lo:hi] {
		sumG += b.grad[i]
		sumH += b.hess[i]
	}
	return sumG, sumH
}

// scans reports whether a node of the given depth, row count and hessian
// sum runs a split scan. A cut needs hl >= minChildHess on its left and
// sumH-hl >= minChildHess on its right, which no cut of a node with
// sumH < 2*minChildHess passes: fl(sumH-hl) is then exact (Sterbenz) and
// below minChildHess. The bound keeps a relative slack of 1e-9 below
// that: sumH adds the node's rows in idx order while the scan's prefix
// sums add them in presorted order, so the two can differ in their last
// bits, and a node near the bound is scanned rather than pruned. The
// prune therefore only skips scans that cannot succeed.
func (b *regBuilder) scans(depth, rows int, sumH float64) bool {
	return depth < b.maxDepth && rows >= 2 && sumH >= 2*b.minChildHess*(1-1e-9)
}

// build grows the subtree over the node range [lo, hi), whose sums are
// sumG and sumH, and returns its node index.
func (b *regBuilder) build(lo, hi, depth int, sumG, sumH float64) int {
	if !b.scans(depth, hi-lo, sumH) {
		return b.leaf(sumG, sumH)
	}
	idx := b.idx[lo:hi]
	feat, thresh, ok := b.bestSplit(lo, hi, depth, sumG, sumH)
	if !ok {
		return b.leaf(sumG, sumH)
	}
	// Stable in-place partition, as in classBuilder: left-goers compact to
	// the front of idx in order, right-goers stage through b.part.
	nl := 0
	right := b.part[:0]
	for _, i := range idx {
		var g uint8
		if b.x[i][feat] <= thresh {
			g = 1
			idx[nl] = i
			nl++
		} else {
			right = append(right, i)
		}
		b.goLeft[i] = g
	}
	copy(idx[nl:], right)
	if nl == 0 || nl == len(idx) {
		return b.leaf(sumG, sumH)
	}
	// Children that will not scan never read their segments.
	lg, lh := b.sums(lo, lo+nl)
	rg, rh := b.sums(lo+nl, hi)
	if b.scans(depth+1, nl, lh) || b.scans(depth+1, hi-lo-nl, rh) {
		b.partitionSegments(lo, hi, nl, depth)
	}
	me := len(b.tree.nodes)
	b.tree.nodes = append(b.tree.nodes, node{feature: feat, thresh: thresh})
	l := b.build(lo, lo+nl, depth+1, lg, lh)
	r := b.build(lo+nl, hi, depth+1, rg, rh)
	b.tree.nodes[me].left = l
	b.tree.nodes[me].right = r
	return me
}

// partitionSegments stably splits the node range [lo, hi) of every
// segment of a node of the given depth into its nl left-goers followed by
// its right-goers, in the tree's segments. Each entry is stored both at
// the left-goers' end and in the right-goer staging buffer, and only the
// index of its side advances: the side is random in presorted order, so
// this loop has no branch on it. The store of a right-goer at the
// left-goers' end is overwritten by the next left-goer or, after the last
// one, by the staged right-goers copied to [nl, hi).
func (b *regBuilder) partitionSegments(lo, hi, nl, depth int) {
	part := b.partSegs[:hi-lo]
	for j := range b.cols {
		src := b.segment(j, lo, hi, depth)
		dst := b.segs[j*b.m+lo : j*b.m+hi]
		k, r := 0, 0
		for _, e := range src {
			left := int(b.goLeft[entryRow(e)])
			dst[k] = e
			part[r] = e
			k += left
			r += 1 - left
		}
		copy(dst[nl:], part[:r])
	}
}

func (b *regBuilder) leaf(sumG, sumH float64) int {
	v := -sumG / (sumH + b.lambda)
	b.tree.nodes = append(b.tree.nodes, node{feature: -1, value: v})
	return len(b.tree.nodes) - 1
}

// bestSplit maximizes the XGBoost structure gain over the node's range of
// every sampled column's segment, scanned in presorted order. A cut
// between two entries is a candidate where their ranks differ, that is,
// for finite values, where the value changes; its threshold is the
// midpoint of the two rows' values, read from x.
func (b *regBuilder) bestSplit(lo, hi, depth int, sumG, sumH float64) (int, float64, bool) {
	lambda, minHess := b.lambda, b.minChildHess
	parent := sumG * sumG / (sumH + lambda)
	bestGain := 1e-9
	bestFeat := -1
	var bestLeft, bestRight uint32 // the rows either side of the best cut
	for j, f := range b.cols {
		seg := b.segment(j, lo, hi, depth)
		var gl, hl float64
		gl += b.grad[entryRow(seg[0])]
		hl += b.hess[entryRow(seg[0])]
		for p := 1; p < len(seg); p++ {
			// Candidate cut between positions p-1 and p. hl only grows,
			// so once the right side's hessian is short no later cut
			// can pass.
			if sumH-hl < minHess {
				break
			}
			prev, e := seg[p-1], seg[p]
			if entryRank(prev) != entryRank(e) && hl >= minHess {
				gr := sumG - gl
				hr := sumH - hl
				gain := gl*gl/(hl+lambda) + gr*gr/(hr+lambda) - parent
				if gain > bestGain {
					bestGain = gain
					bestFeat = f
					bestLeft, bestRight = entryRow(prev), entryRow(e)
				}
			}
			i := entryRow(e)
			gl += b.grad[i]
			hl += b.hess[i]
		}
	}
	if bestFeat < 0 {
		return -1, 0, false
	}
	return bestFeat, (b.x[bestLeft][bestFeat] + b.x[bestRight][bestFeat]) / 2, true
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
