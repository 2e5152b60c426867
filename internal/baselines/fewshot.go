package baselines

import (
	"fmt"
	"math"
	"math/rand"

	"netdrift/internal/dataset"
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
	Episodes int     // default 200
	Shots    int     // support size per class per episode; default 5
	Queries  int     // query size per class per episode; default 5
	LR       float64 // default 1e-3
	// ProtoBlend weighs the target support against source prototypes when
	// forming inference prototypes (ProtoNet only); default 0.7.
	ProtoBlend float64
	Seed       int64

	head fewShotHead
}

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
	shots := m.Shots
	if shots == 0 {
		shots = 5
	}
	queries := m.Queries
	if queries == 0 {
		queries = 5
	}
	lr := m.LR
	if lr == 0 {
		lr = 1e-3
	}
	blend := m.ProtoBlend
	if blend == 0 {
		blend = 0.7
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
	opt := nn.NewAdam(lr, 1e-5)
	params := net.Params()

	byClass := make(map[int][]int)
	for i, y := range source.Y {
		byClass[y] = append(byClass[y], i)
	}

	for ep := 0; ep < episodes; ep++ {
		if err := m.episode(net, opt, params, srcX, byClass, numClasses, shots, queries, rng); err != nil {
			return nil, fmt.Errorf("baselines: %s episode %d: %w", m.Name(), ep, err)
		}
	}

	supZ := net.Forward(supX, false)
	testZ := net.Forward(testX, false)
	switch m.head {
	case headMatch:
		return matchInference(testZ, supZ, support.Y, numClasses), nil
	default:
		srcZ := net.Forward(srcX, false)
		return protoInference(testZ, srcZ, source.Y, supZ, support.Y, numClasses, blend), nil
	}
}

// episode runs one episodic training step on source data.
func (m *FewShotNet) episode(net *nn.Network, opt nn.Optimizer, params []*nn.Param,
	srcX [][]float64, byClass map[int][]int, numClasses, shots, queries int, rng *rand.Rand) error {

	var batch [][]float64
	var supClass, qryClass []int // class of each support/query row
	var supPos, qryPos []int     // row positions in batch
	for c := 0; c < numClasses; c++ {
		idx := byClass[c]
		if len(idx) == 0 {
			continue
		}
		perm := rng.Perm(len(idx))
		take := func(k int) []int {
			out := make([]int, 0, k)
			for i := 0; i < k; i++ {
				out = append(out, idx[perm[i%len(perm)]])
			}
			return out
		}
		for _, i := range take(shots) {
			supPos = append(supPos, len(batch))
			supClass = append(supClass, c)
			batch = append(batch, srcX[i])
		}
		perm = rng.Perm(len(idx))
		for _, i := range take(queries) {
			qryPos = append(qryPos, len(batch))
			qryClass = append(qryClass, c)
			batch = append(batch, srcX[i])
		}
	}
	if len(supPos) == 0 || len(qryPos) == 0 {
		return fmt.Errorf("empty episode")
	}

	z := net.Forward(batch, true)
	dim := len(z[0])

	// Per-class support statistics.
	classRows := make(map[int][]int) // class -> positions in batch
	for k, pos := range supPos {
		classRows[supClass[k]] = append(classRows[supClass[k]], pos)
	}
	protos := make(map[int][]float64)
	for c, rows := range classRows {
		p := make([]float64, dim)
		for _, r := range rows {
			for j, v := range z[r] {
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
	gradZ := make([][]float64, len(z))
	for i := range gradZ {
		gradZ[i] = make([]float64, dim)
	}
	nQ := float64(len(qryPos))
	for k, qp := range qryPos {
		zq := z[qp]
		scores := make([]float64, len(classes))
		for ci, c := range classes {
			switch m.head {
			case headMatch:
				rows := classRows[c]
				var s float64
				for _, r := range rows {
					s += dot(zq, z[r])
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
					for j := 0; j < dim; j++ {
						gradZ[qp][j] += g * scale * z[r][j]
						gradZ[r][j] += g * scale * zq[j]
					}
				}
			default:
				proto := protos[c]
				rows := classRows[c]
				inv := 1 / float64(len(rows))
				for j := 0; j < dim; j++ {
					diff := zq[j] - proto[j]
					gradZ[qp][j] += g * (-2) * diff
					// Support gradient flows through the class mean.
					for _, r := range rows {
						gradZ[r][j] += g * 2 * diff * inv
					}
				}
			}
		}
	}
	net.Backward(gradZ)
	opt.Step(params)
	return nil
}

// protoInference blends source prototypes with target support means and
// assigns each query to the nearest prototype.
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
		best := 0
		for c, v := range classMass {
			if v > classMass[best] {
				best = c
			}
		}
		out[i] = best
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
