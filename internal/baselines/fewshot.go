package baselines

import (
	"fmt"
	"math"
	"math/rand"

	"netdrift/internal/dataset"
	"netdrift/internal/metrics"
	"netdrift/internal/models"
	"netdrift/internal/nn"
)

// fewShotHead selects the episodic scoring function.
type fewShotHead int

const (
	headProto fewShotHead = iota + 1 // squared distance to class prototypes
	headMatch                        // attention over individual support samples
)

// FewShotNet implements the MatchNet [22] and ProtoNet [21] baselines: an
// embedding network trained episodically on the source domain, with the
// few-shot target samples forming the inference-time support set.
type FewShotNet struct {
	Episodes int // default 200
	Seed     int64

	head fewShotHead
}

// The episodes' support and query sizes per class, their Adam learning
// rate, and the weight of the target support against source prototypes
// when ProtoNet forms its inference prototypes.
const (
	episodeShots   = 5
	episodeQueries = 5
	fewShotLR      = 1e-3
	protoBlend     = 0.7
)

var _ Method = (*FewShotNet)(nil)

// NewProtoNet returns the prototypical-networks baseline.
func NewProtoNet(episodes int, seed int64) *FewShotNet {
	return &FewShotNet{Episodes: episodes, Seed: seed, head: headProto}
}

// NewMatchNet returns the matching-networks baseline.
func NewMatchNet(episodes int, seed int64) *FewShotNet {
	return &FewShotNet{Episodes: episodes, Seed: seed, head: headMatch}
}

// Name implements Method.
func (m *FewShotNet) Name() string {
	if m.head == headMatch {
		return "MatchNet"
	}
	return "ProtoNet"
}

// Predict implements Method.
func (m *FewShotNet) Predict(source, support, test *dataset.Dataset, _ models.Classifier) ([]int, error) {
	if err := validateInputs(source, support, test, true); err != nil {
		return nil, err
	}
	episodes := m.Episodes
	if episodes == 0 {
		episodes = 200
	}
	numClasses := numClassesOf(source, support, test)
	scaled, err := zScale(source.X, source.X, support.X, test.X)
	if err != nil {
		return nil, err
	}
	srcX, supX, testX := scaled[0], scaled[1], scaled[2]

	rng := rand.New(rand.NewSource(m.Seed))
	in := source.NumFeatures()
	net := nn.NewNetwork(
		nn.NewDense(in, 128, rng),
		nn.NewReLU(),
		nn.NewDense(128, 64, rng),
	)
	opt := nn.NewAdam(fewShotLR, 1e-5)
	params := net.Params()

	byClass := make(map[int][]int)
	for i, y := range source.Y {
		byClass[y] = append(byClass[y], i)
	}

	var scr episodeScratch
	for ep := 0; ep < episodes; ep++ {
		if err := m.episode(net, opt, params, srcX, byClass, numClasses, rng, &scr); err != nil {
			return nil, fmt.Errorf("baselines: %s episode %d: %w", m.Name(), ep, err)
		}
	}

	var xt nn.Tensor
	var inf nn.InferScratch
	embed := func(x [][]float64) [][]float64 {
		return nn.Infer(net, xt.SetFromRows(x), &inf).ToRows()
	}
	supZ := embed(supX)
	testZ := embed(testX)
	switch m.head {
	case headMatch:
		return matchInference(testZ, supZ, support.Y, numClasses), nil
	default:
		srcZ := embed(srcX)
		return protoInference(testZ, srcZ, source.Y, supZ, support.Y, numClasses, protoBlend), nil
	}
}

// episodeScratch holds an episode's batch and gradient tensors, reused
// across episodes.
type episodeScratch struct {
	batch, gradZ nn.Tensor
}

// episode runs one episodic training step on source data.
func (m *FewShotNet) episode(net *nn.Network, opt *nn.Adam, params []*nn.Param,
	srcX [][]float64, byClass map[int][]int, numClasses int, rng *rand.Rand, scr *episodeScratch) error {

	var srcRows []int            // source row of each batch position
	var supClass, qryClass []int // class of each support/query row
	var supPos, qryPos []int     // row positions in batch
	for c := 0; c < numClasses; c++ {
		idx := byClass[c]
		if len(idx) == 0 {
			continue
		}
		perm := rng.Perm(len(idx))
		for i := 0; i < episodeShots; i++ {
			supPos = append(supPos, len(srcRows))
			supClass = append(supClass, c)
			srcRows = append(srcRows, idx[perm[i%len(perm)]])
		}
		perm = rng.Perm(len(idx))
		for i := 0; i < episodeQueries; i++ {
			qryPos = append(qryPos, len(srcRows))
			qryClass = append(qryClass, c)
			srcRows = append(srcRows, idx[perm[i%len(perm)]])
		}
	}
	if len(supPos) == 0 || len(qryPos) == 0 {
		return fmt.Errorf("empty episode")
	}

	z := net.ForwardT(nn.GatherInto(&scr.batch, srcX, srcRows))
	dim := z.Cols()

	// Per-class support statistics.
	classRows := make(map[int][]int) // class -> positions in batch
	for k, pos := range supPos {
		classRows[supClass[k]] = append(classRows[supClass[k]], pos)
	}
	protos := make(map[int][]float64)
	for c, rows := range classRows {
		p := make([]float64, dim)
		for _, r := range rows {
			for j, v := range z.Row(r) {
				p[j] += v
			}
		}
		for j := range p {
			p[j] /= float64(len(rows))
		}
		protos[c] = p
	}
	classes := make([]int, 0, len(protos))
	for c := 0; c < numClasses; c++ {
		if _, ok := protos[c]; ok {
			classes = append(classes, c)
		}
	}

	const temp = 8.0
	gradZ := scr.gradZ.ZeroReset(z.Rows(), dim)
	nQ := float64(len(qryPos))
	for k, qp := range qryPos {
		zq := z.Row(qp)
		gq := gradZ.Row(qp)
		scores := make([]float64, len(classes))
		for ci, c := range classes {
			switch m.head {
			case headMatch:
				rows := classRows[c]
				var s float64
				for _, r := range rows {
					s += dot(zq, z.Row(r))
				}
				scores[ci] = s / (temp * float64(len(rows)))
			default:
				scores[ci] = -sqDist(zq, protos[c])
			}
		}
		p := nn.Softmax(scores)
		for ci, c := range classes {
			g := p[ci] / nQ
			if c == qryClass[k] {
				g -= 1 / nQ
			}
			if g == 0 {
				continue
			}
			switch m.head {
			case headMatch:
				rows := classRows[c]
				scale := 1 / (temp * float64(len(rows)))
				for _, r := range rows {
					zr, gr := z.Row(r), gradZ.Row(r)
					for j := 0; j < dim; j++ {
						gq[j] += g * scale * zr[j]
						gr[j] += g * scale * zq[j]
					}
				}
			default:
				proto := protos[c]
				rows := classRows[c]
				inv := 1 / float64(len(rows))
				for j := 0; j < dim; j++ {
					diff := zq[j] - proto[j]
					gq[j] += g * (-2) * diff
					// Support gradient flows through the class mean.
					for _, r := range rows {
						gradZ.Row(r)[j] += g * 2 * diff * inv
					}
				}
			}
		}
	}
	nn.BackwardWindow(net, gradZ, 0, 0)
	opt.Step(params)
	return nil
}

// protoInference blends source prototypes with target support means and
// assigns each query to the nearest prototype. blend is a parameter, not
// the constant protoBlend, so that 1-blend rounds at run time: folded as a
// constant expression it would be exactly 0.3, one ulp off the value the
// pinned results were computed with.
func protoInference(testZ, srcZ [][]float64, srcY []int, supZ [][]float64, supY []int, numClasses int, blend float64) []int {
	dim := len(testZ[0])
	srcProto := classMeans(srcZ, srcY, numClasses, dim)
	tgtProto := classMeans(supZ, supY, numClasses, dim)
	protos := make([][]float64, numClasses)
	for c := 0; c < numClasses; c++ {
		switch {
		case srcProto[c] == nil && tgtProto[c] == nil:
			continue
		case srcProto[c] == nil:
			protos[c] = tgtProto[c]
		case tgtProto[c] == nil:
			protos[c] = srcProto[c]
		default:
			p := make([]float64, dim)
			for j := 0; j < dim; j++ {
				p[j] = (1-blend)*srcProto[c][j] + blend*tgtProto[c][j]
			}
			protos[c] = p
		}
	}
	out := make([]int, len(testZ))
	for i, zq := range testZ {
		best, bestD := -1, math.Inf(1)
		for c, p := range protos {
			if p == nil {
				continue
			}
			if d := sqDist(zq, p); d < bestD {
				bestD = d
				best = c
			}
		}
		out[i] = best
	}
	return out
}

// matchInference classifies by cosine attention over the target support.
func matchInference(testZ, supZ [][]float64, supY []int, numClasses int) []int {
	const temp = 0.1
	out := make([]int, len(testZ))
	for i, zq := range testZ {
		sims := make([]float64, len(supZ))
		for s, zs := range supZ {
			sims[s] = cosine(zq, zs) / temp
		}
		att := nn.Softmax(sims)
		classMass := make([]float64, numClasses)
		for s, a := range att {
			classMass[supY[s]] += a
		}
		out[i] = metrics.Argmax(classMass)
	}
	return out
}

func classMeans(z [][]float64, y []int, numClasses, dim int) [][]float64 {
	sums := make([][]float64, numClasses)
	counts := make([]int, numClasses)
	for i, c := range y {
		if sums[c] == nil {
			sums[c] = make([]float64, dim)
		}
		for j, v := range z[i] {
			sums[c][j] += v
		}
		counts[c]++
	}
	for c := range sums {
		if sums[c] == nil {
			continue
		}
		for j := range sums[c] {
			sums[c][j] /= float64(counts[c])
		}
	}
	return sums
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

func cosine(a, b []float64) float64 {
	na, nb := math.Sqrt(dot(a, a)), math.Sqrt(dot(b, b))
	if na == 0 || nb == 0 {
		return 0
	}
	return dot(a, b) / (na * nb)
}
