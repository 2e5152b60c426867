package core

import (
	"fmt"
	"math"
	"math/rand"

	"netdrift/internal/dataset"
	"netdrift/internal/nn"
	"netdrift/internal/obs"
)

// GANConfig tunes the conditional GAN reconstructor. Zero values select the
// paper's hyper-parameters scaled to CPU budgets.
type GANConfig struct {
	Epochs    int // default 60 (paper trains 500 on GPU)
	BatchSize int // default 64 (paper §VI-D)
	// LR defaults to 1e-3 for both G and D: the paper uses 2e-4 (§V-C3)
	// over 500 GPU epochs; a CPU-scale epoch budget needs a higher rate to
	// cover the same optimization distance. Set 2e-4 explicitly to mirror
	// the paper's schedule.
	LR          float64
	Decay       float64 // default 1e-6 weight decay (paper §V-C3)
	NoiseDim    int     // default from data dimension (30 / 15 in the paper)
	Hidden      int     // default 256 (>200 features) or 128
	Conditional bool    // condition D on the label (FS+GAN vs FS+NoCond)
	// AnchorWeight adds a small L2 reconstruction anchor to the generator
	// loss. The paper trains the pure adversarial objective for 500 GPU
	// epochs; the anchor recovers the same reconstruction fidelity within
	// a CPU-scale epoch budget while the adversarial term still shapes the
	// conditional distribution. Set to 0 for the pure objective.
	AnchorWeight float64 // default 0.25
	Seed         int64
	// Shards fixes the gradient-shard count for deterministic data-parallel
	// training; 0 or 1 selects the single-shard sequential path. The shard
	// count — never the worker count — defines the batch math (per-shard
	// ghost batch norm, per-shard noise/dropout streams), so it is part of
	// the reproducibility key like Seed. Never serialized: persisted
	// adapters are inference-only and re-Fit rebuilds the nets anyway.
	Shards int `json:"-"`
	// Workers bounds the goroutines running the shards; <= 0 uses all CPUs.
	// Trained weights are bit-identical for every value. Never serialized.
	Workers int `json:"-"`
	// Obs, when non-nil, receives per-epoch generator/discriminator losses
	// and a fit-completion event. It never changes the training math or the
	// RNG stream, so instrumented and plain runs produce identical weights.
	// Never serialized.
	Obs *obs.Observer `json:"-"`
}

func (c *GANConfig) applyDefaults(numFeatures int) {
	if c.Epochs == 0 {
		c.Epochs = 60
	}
	if c.BatchSize == 0 {
		c.BatchSize = 64
	}
	if c.LR == 0 {
		c.LR = 1e-3
	}
	if c.Decay == 0 {
		c.Decay = 1e-6
	}
	if c.NoiseDim == 0 {
		c.NoiseDim = noiseDim(numFeatures)
	}
	if c.Hidden == 0 {
		c.Hidden = hiddenDim(numFeatures)
	}
	if c.AnchorWeight == 0 {
		c.AnchorWeight = 1
	}
}

// CGAN is the conditional GAN of §V-C: the generator reconstructs variant
// features from [invariant features, Gaussian noise]; the discriminator
// judges [invariant, variant(, one-hot label)] tuples.
type CGAN struct {
	cfg GANConfig

	gen     *nn.Network
	disc    *nn.Network
	invDim  int
	varDim  int
	rng     *rand.Rand
	fixedZ  []float64 // pinned inference noise draw (M=1, §V-C2)
	trained bool
	scr     ganScratch
	shr     *ganShards // sharded-training state; nil on the sequential path
}

// ganScratch holds the per-batch buffers reused across the whole training
// run (steady-state epochs allocate nothing; see DESIGN.md §5c).
type ganScratch struct {
	perm     []int
	batches  [][]int
	bInv     nn.Tensor
	bVar     nn.Tensor
	bLab     nn.Tensor
	noise    nn.Tensor
	genIn    nn.Tensor // [bInv | noise]; held by the generator between passes
	discIn   nn.Tensor // [bInv | var (| label)]
	targets  []float64
	grad     nn.Tensor // BCE gradient w.r.t. discriminator logits
	gradFake nn.Tensor // gradient w.r.t. the generated variant block
	gradMSE  nn.Tensor
}

var _ Reconstructor = (*CGAN)(nil)

// NewCGAN creates an untrained conditional GAN reconstructor.
func NewCGAN(cfg GANConfig) *CGAN {
	return &CGAN{cfg: cfg}
}

// Name implements Reconstructor.
func (g *CGAN) Name() string {
	if g.cfg.Conditional {
		return "GAN"
	}
	return "NoCond"
}

// Fit trains generator and discriminator adversarially on source data only.
func (g *CGAN) Fit(inv, vr [][]float64, y []int, numClasses int) error {
	if len(inv) == 0 || len(inv) != len(vr) {
		return fmt.Errorf("core: gan fit needs matching inv/var rows (%d, %d)", len(inv), len(vr))
	}
	if len(vr[0]) == 0 {
		return fmt.Errorf("core: gan fit with no variant features")
	}
	g.invDim = len(inv[0])
	g.varDim = len(vr[0])
	total := g.invDim + g.varDim
	g.cfg.applyDefaults(total)
	g.rng = rand.New(rand.NewSource(g.cfg.Seed))

	// Generator: [X_inv, Z] -> X_var, two hidden layers with batch norm and
	// ReLU, tanh output (features are scaled to [-1, 1]). CTGAN-style
	// architecture (§V-C3), with CTGAN's residual trick realized as a skip
	// concatenation so the output layer sees the conditioning input
	// directly — telemetry totals are near-linear in their constituent
	// counters and the skip makes that component trainable within a CPU
	// epoch budget.
	h := g.cfg.Hidden
	trunk := nn.NewNetwork(
		nn.NewDense(g.invDim+g.cfg.NoiseDim, h, g.rng),
		nn.NewBatchNorm(h),
		nn.NewReLU(),
		nn.NewDense(h, h, g.rng),
		nn.NewBatchNorm(h),
		nn.NewReLU(),
	)
	g.gen = nn.NewNetwork(
		nn.NewSkipConcat(trunk),
		nn.NewDense(h+g.invDim+g.cfg.NoiseDim, g.varDim, g.rng),
		nn.NewTanh(),
	)
	// Discriminator: [X_inv, X_var(, Y)] -> real/fake logit, leaky-ReLU +
	// dropout (§V-C3).
	dIn := g.invDim + g.varDim
	var oneHot [][]float64
	if g.cfg.Conditional {
		dIn += numClasses
		var err error
		oneHot, err = dataset.OneHot(y, numClasses)
		if err != nil {
			return fmt.Errorf("core: gan labels: %w", err)
		}
	}
	g.disc = nn.NewNetwork(
		nn.NewDense(dIn, h, g.rng),
		nn.NewLeakyReLU(0.2),
		nn.NewDropout(0.3, g.rng),
		nn.NewDense(h, h, g.rng),
		nn.NewLeakyReLU(0.2),
		nn.NewDropout(0.3, g.rng),
		nn.NewDense(h, 1, g.rng),
	)

	optG := nn.NewAdam(g.cfg.LR, g.cfg.Decay)
	optD := nn.NewAdam(g.cfg.LR, g.cfg.Decay)
	genParams := g.gen.Params()
	discParams := g.disc.Params()
	if g.cfg.Shards > 1 {
		g.shr = newGANShards(g)
	}

	n := len(inv)
	bestLoss := math.Inf(1)
	convergedEpoch := 0
	scr := &g.scr
	for epoch := 0; epoch < g.cfg.Epochs; epoch++ {
		var genSum, discSum float64
		var batches int
		scr.perm, scr.batches = nn.MinibatchesInto(n, g.cfg.BatchSize, g.rng, scr.perm, scr.batches)
		for _, idx := range scr.batches {
			nn.GatherInto(&scr.bInv, inv, idx)
			nn.GatherInto(&scr.bVar, vr, idx)
			if g.cfg.Conditional {
				nn.GatherInto(&scr.bLab, oneHot, idx)
			}
			var dLoss, gLoss float64
			var err error
			if g.shr != nil {
				dLoss, err = g.discStepSharded(optD, discParams)
			} else {
				dLoss, err = g.discStep(optD, discParams, genParams)
			}
			if err != nil {
				return fmt.Errorf("core: gan epoch %d: %w", epoch, err)
			}
			if g.shr != nil {
				gLoss, err = g.genStepSharded(optG, genParams)
			} else {
				gLoss, err = g.genStep(optG, genParams, discParams)
			}
			if err != nil {
				return fmt.Errorf("core: gan epoch %d: %w", epoch, err)
			}
			genSum += gLoss
			discSum += dLoss
			batches++
		}
		if batches > 0 {
			genMean := genSum / float64(batches)
			if genMean < bestLoss {
				bestLoss = genMean
				convergedEpoch = epoch + 1
			}
			g.cfg.Obs.OnTrainEpoch(obs.TrainEpoch{
				Model: g.Name(), Epoch: epoch,
				GenLoss: genMean, DiscLoss: discSum / float64(batches),
				Adversarial: true,
			})
		}
	}
	g.cfg.Obs.OnTrainDone(obs.TrainDone{
		Model: g.Name(), Epochs: g.cfg.Epochs, ConvergedEpoch: convergedEpoch,
	})
	// Pin the inference noise at the prior mode: the paper's M=1
	// Monte-Carlo estimate with a small noise vector, made reproducible so
	// repeated transformations of the same sample agree exactly.
	g.fixedZ = make([]float64, g.cfg.NoiseDim)
	g.trained = true
	return nil
}

// generateT runs the generator on an invariant batch through the flat
// path, drawing its noise rows from g.rng in row-major order. The result is
// the generator's output scratch, valid until the next generator pass.
func (g *CGAN) generateT(bInv *nn.Tensor, train bool) *nn.Tensor {
	scr := &g.scr
	gaussianNoiseInto(&scr.noise, bInv.Rows(), g.cfg.NoiseDim, g.rng)
	return g.gen.ForwardT(nn.ConcatInto(&scr.genIn, bInv, &scr.noise), train)
}

// discInputT assembles the discriminator input in scratch.
func (g *CGAN) discInputT(bVar *nn.Tensor) *nn.Tensor {
	scr := &g.scr
	if g.cfg.Conditional {
		return nn.ConcatInto(&scr.discIn, &scr.bInv, bVar, &scr.bLab)
	}
	return nn.ConcatInto(&scr.discIn, &scr.bInv, bVar)
}

// discStep trains D to separate real from generated variant features. It
// returns the summed real+fake BCE loss of the step. The batch lives in
// g.scr (bInv/bVar/bLab), gathered by Fit.
func (g *CGAN) discStep(opt nn.Optimizer, discParams, genParams []*nn.Param) (float64, error) {
	scr := &g.scr
	n := scr.bInv.Rows()
	// Real pass.
	realOut := g.disc.ForwardT(g.discInputT(&scr.bVar), true)
	scr.targets = constTargetsInto(scr.targets, n, 0.9) // mild label smoothing for stability
	lossReal, err := nn.BCEWithLogitsT(realOut, scr.targets, &scr.grad)
	if err != nil {
		return 0, err
	}
	g.disc.BackwardT(&scr.grad)
	// Fake pass (generator output detached: we never backward into G here;
	// the concat into discIn copies it out of the generator's scratch).
	fake := g.generateT(&scr.bInv, true)
	fakeOut := g.disc.ForwardT(g.discInputT(fake), true)
	scr.targets = constTargetsInto(scr.targets, n, 0)
	lossFake, err := nn.BCEWithLogitsT(fakeOut, scr.targets, &scr.grad)
	if err != nil {
		return 0, err
	}
	g.disc.BackwardT(&scr.grad)
	opt.Step(discParams)
	nn.ZeroGrads(genParams) // drop any gradient that leaked into G caches
	return lossReal + lossFake, nil
}

// genStep trains G to fool D (plus the optional reconstruction anchor). It
// returns the generator objective: adversarial BCE plus the weighted anchor.
func (g *CGAN) genStep(opt nn.Optimizer, genParams, discParams []*nn.Param) (float64, error) {
	scr := &g.scr
	n := scr.bInv.Rows()
	fake := g.generateT(&scr.bInv, true)
	fakeOut := g.disc.ForwardT(g.discInputT(fake), true)
	scr.targets = constTargetsInto(scr.targets, n, 1)
	loss, err := nn.BCEWithLogitsT(fakeOut, scr.targets, &scr.grad)
	if err != nil {
		return 0, err
	}
	gradDIn := g.disc.BackwardT(&scr.grad)
	// Slice out the gradient w.r.t. the generated variant block.
	gradFake := scr.gradFake.Reset(n, g.varDim)
	for i := 0; i < n; i++ {
		copy(gradFake.Row(i), gradDIn.Row(i)[g.invDim:g.invDim+g.varDim])
	}
	if g.cfg.AnchorWeight > 0 {
		// fake is still the generator's live output scratch: no generator
		// pass has run since generateT, so the anchor reads it directly.
		lossMSE, err := nn.MSET(fake, &scr.bVar, &scr.gradMSE)
		if err != nil {
			return 0, err
		}
		// nn.MSE normalizes by rows×columns while the adversarial BCE
		// normalizes by rows only; rescale by the variant dimension so the
		// anchor weight expresses a per-row balance.
		w := g.cfg.AnchorWeight * float64(g.varDim)
		loss += w * lossMSE
		gf, gm := gradFake.Data(), scr.gradMSE.Data()
		for i := range gf {
			gf[i] += w * gm[i]
		}
	}
	g.gen.BackwardT(gradFake)
	opt.Step(genParams)
	nn.ZeroGrads(discParams) // D gradients from this pass are discarded
	return loss, nil
}

// Snapshots returns deep copies of the trained networks' parameters and
// running statistics (generator first, then discriminator), for bitwise
// determinism verification across worker counts and kernel sets.
func (g *CGAN) Snapshots() []*nn.Snapshot {
	return []*nn.Snapshot{nn.TakeSnapshot(g.gen), nn.TakeSnapshot(g.disc)}
}

// ReconstructT implements Reconstructor: the whole batch runs through one
// generator inference pass. Rows with seed 0 use the pinned prior-mode
// noise (fixedZ, the paper's M=1 draw of §V-C2); other seeds draw a
// reproducible standard-normal noise row.
func (g *CGAN) ReconstructT(inv *nn.Tensor, seeds []int64, scr *AdaptScratch) (*nn.Tensor, error) {
	if !g.trained {
		return nil, ErrNotFitted
	}
	if err := checkReconInput(inv, seeds, g.invDim); err != nil {
		return nil, err
	}
	noise := scr.noise.Reset(inv.Rows(), g.cfg.NoiseDim)
	for i, seed := range seeds {
		row := noise.Row(i)
		if seed == 0 {
			copy(row, g.fixedZ)
			continue
		}
		rng := scr.seeded(seed)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
	}
	return nn.Infer(g.gen, nn.ConcatInto(&scr.genIn, inv, noise), &scr.infer), nil
}

// ReconstructMC is the general M-sample Monte-Carlo estimator of §V-C2:
// it averages m independent noise draws per row. The paper (and this
// implementation's default, ReconstructT with seed 0) uses M = 1 because
// with a small noise dimension the draws barely move downstream
// predictions; this method exists to verify that claim and for callers who
// want the conditional-mean estimate explicitly.
func (g *CGAN) ReconstructMC(inv [][]float64, m int) ([][]float64, error) {
	if !g.trained {
		return nil, ErrNotFitted
	}
	if m < 1 {
		return nil, fmt.Errorf("core: monte-carlo sample count %d must be positive", m)
	}
	if len(inv) == 0 {
		return nil, nil
	}
	var in nn.Tensor
	if err := rowsInto(&in, inv, g.invDim); err != nil {
		return nil, err
	}
	acc := make([][]float64, len(inv))
	for i := range acc {
		acc[i] = make([]float64, g.varDim)
	}
	for draw := 0; draw < m; draw++ {
		out := g.generateT(&in, false)
		for i := range acc {
			for j, v := range out.Row(i) {
				acc[i][j] += v
			}
		}
	}
	invM := 1 / float64(m)
	for i := range acc {
		for j := range acc[i] {
			acc[i][j] *= invM
		}
	}
	return acc, nil
}

// constTargetsInto fills (and if needed regrows) buf with n copies of v.
func constTargetsInto(buf []float64, n int, v float64) []float64 {
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = v
	}
	return buf
}
