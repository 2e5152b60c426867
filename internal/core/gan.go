package core

import (
	"fmt"
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
	// Shards fixes the gradient-shard count of the training harness; 0 or 1
	// trains as one shard, the network itself drawing from the model's own
	// seeded streams. The shard count — never the worker count — defines
	// the batch math (per-shard ghost batch norm, per-shard noise/dropout
	// streams), so it is part of the reproducibility key like Seed. Never
	// serialized: persisted adapters are inference-only and re-Fit rebuilds
	// the nets anyway.
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

	// Training state: the shard replicas (the networks themselves at one
	// shard) and each shard's reused buffers (steady-state epochs allocate
	// nothing; see DESIGN.md §5c).
	sgen, sdisc *nn.ShardedNet
	sh          []ganShard
}

// ganShard is one shard's private training buffers, reused across the run.
type ganShard struct {
	noise, genIn nn.Tensor // generator input [inv | noise]
	discIn       nn.Tensor // [inv | var (| label)]
	targets      []float64
	grad         nn.Tensor // BCE gradient w.r.t. discriminator logits
	gradFake     nn.Tensor // gradient w.r.t. the generated variant block
	gradMSE      nn.Tensor
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
	tr, err := newTrainer(g.Name(), trainOpts{g.cfg.Seed, g.cfg.Shards, g.cfg.Workers, g.cfg.Obs}, inv, vr, y, g.cfg.Conditional)
	if err != nil {
		return err
	}
	g.invDim = len(inv[0])
	g.varDim = len(vr[0])
	total := g.invDim + g.varDim
	g.cfg.applyDefaults(total)
	g.rng = tr.rng

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

	g.sgen, g.sdisc = tr.net(g.gen), tr.net(g.disc)
	g.sh = make([]ganShard, tr.shards)
	// The discriminator loss is the real plus the fake BCE, each a per-row
	// mean. The generator objective is the adversarial BCE plus the
	// weighted anchor: the squared error normalizes by rows×columns while
	// the BCE normalizes by rows only, so the anchor weight is scaled by
	// the variant dimension to express a per-row balance.
	disc := tr.phase(g.discShard, nn.NewAdam(g.cfg.LR, g.cfg.Decay), g.disc.Params(),
		[]*nn.ShardedNet{g.sdisc}, lossTerm{1, 1}, lossTerm{1, 1})
	gen := tr.phase(g.genShard, nn.NewAdam(g.cfg.LR, g.cfg.Decay), g.gen.Params(),
		[]*nn.ShardedNet{g.sgen}, lossTerm{1, 1}, lossTerm{g.varDim, g.cfg.AnchorWeight * float64(g.varDim)})
	if err := tr.fit(g.cfg.Epochs, g.cfg.BatchSize, oneHot, disc, gen); err != nil {
		return err
	}
	// Pin the inference noise at the prior mode: the paper's M=1
	// Monte-Carlo estimate with a small noise vector, made reproducible so
	// repeated transformations of the same sample agree exactly.
	g.fixedZ = make([]float64, g.cfg.NoiseDim)
	g.trained = true
	return nil
}

// discInput assembles shard-local discriminator input [inv | vr (| label)].
func (g *CGAN) discInput(sh *ganShard, b *shardBatch, vr *nn.Tensor) *nn.Tensor {
	if g.cfg.Conditional {
		return nn.ConcatInto(&sh.discIn, &b.inv, vr, &b.lab)
	}
	return nn.ConcatInto(&sh.discIn, &b.inv, vr)
}

// generate runs generator replica s on the shard's invariant rows with a
// fresh noise draw from rng. The result is the replica's output scratch,
// valid until its next pass. The generator's weights do not change between
// its pass in the discriminator update, which keeps the first layer's
// products over the invariant block, and its pass in the generator update,
// which resumes from them (resume true).
func (g *CGAN) generate(sh *ganShard, s int, inv *nn.Tensor, rng *rand.Rand, resume bool) *nn.Tensor {
	gaussianNoiseInto(&sh.noise, inv.Rows(), g.cfg.NoiseDim, rng)
	in := nn.ConcatInto(&sh.genIn, inv, &sh.noise)
	if resume {
		return nn.ForwardResume(g.sgen.Net(s), in, g.invDim)
	}
	return nn.ForwardKeep(g.sgen.Net(s), in, g.invDim)
}

// discShard is shard s of the discriminator update: a real and a fake pass
// accumulate into replica s's gradient arena. Loss terms: the real and the
// fake BCE sums.
func (g *CGAN) discShard(tr *trainer, s int, b *shardBatch, loss []float64) error {
	sh := &g.sh[s]
	rows := b.inv.Rows()
	dn := g.sdisc.Net(s)
	g.sdisc.SeedDropouts(s, tr.shardSeed(phaseDiscDropout, s))
	// Both passes share the invariant block: the real pass keeps its
	// first-layer products and the fake pass resumes from them.
	realOut := nn.ForwardKeep(dn, g.discInput(sh, b, &b.vr), g.invDim)
	sh.targets = constTargetsInto(sh.targets, rows, 0.9) // mild label smoothing for stability
	var err error
	if loss[0], err = nn.BCEWithLogitsTN(realOut, sh.targets, &sh.grad, float64(tr.n)); err != nil {
		return err
	}
	// Nothing reads the discriminator's input gradient here: an empty
	// window skips it.
	nn.BackwardWindow(dn, &sh.grad, 0, 0)
	// Fake pass (generator output detached: we never backward into G here;
	// the concat into discIn copies it out of the generator's scratch).
	fake := g.generate(sh, s, &b.inv, tr.rand(s, phaseDiscNoise), false)
	fakeOut := nn.ForwardResume(dn, g.discInput(sh, b, fake), g.invDim)
	sh.targets = constTargetsInto(sh.targets, rows, 0)
	if loss[1], err = nn.BCEWithLogitsTN(fakeOut, sh.targets, &sh.grad, float64(tr.n)); err != nil {
		return err
	}
	nn.BackwardWindow(dn, &sh.grad, 0, 0)
	return nil
}

// genShard is shard s of the generator update: G is trained to fool D,
// plus the optional reconstruction anchor. Loss terms: the adversarial BCE
// and the anchor's squared-error sums.
func (g *CGAN) genShard(tr *trainer, s int, b *shardBatch, loss []float64) error {
	sh := &g.sh[s]
	rows := b.inv.Rows()
	dn := g.sdisc.Net(s)
	g.sdisc.SeedDropouts(s, tr.shardSeed(phaseGenDropout, s))
	fake := g.generate(sh, s, &b.inv, tr.rand(s, phaseGenNoise), true)
	fakeOut := dn.ForwardT(g.discInput(sh, b, fake))
	sh.targets = constTargetsInto(sh.targets, rows, 1)
	var err error
	if loss[0], err = nn.BCEWithLogitsTN(fakeOut, sh.targets, &sh.grad, float64(tr.n)); err != nil {
		return err
	}
	// Only the gradient w.r.t. the generated variant block is read, so the
	// backward computes just that window of the input gradient, and the
	// discriminator is frozen in this update, so none of its parameter
	// gradients. Its arenas stay as the discriminator update left them:
	// all zero (ReduceGrads zeroes the replicas', the optimizer step the
	// canonical ones).
	gradDIn := nn.BackwardFrozen(dn, &sh.grad, g.invDim, g.invDim+g.varDim)
	gradFake := sh.gradFake.Reset(rows, g.varDim)
	for i := 0; i < rows; i++ {
		copy(gradFake.Row(i), gradDIn.Row(i)[g.invDim:g.invDim+g.varDim])
	}
	if g.cfg.AnchorWeight > 0 {
		// fake is still the generator replica's live output: no generator
		// pass has run since generate.
		if loss[1], err = nn.MSETN(fake, &b.vr, &sh.gradMSE, float64(tr.n*g.varDim)); err != nil {
			return err
		}
		w := g.cfg.AnchorWeight * float64(g.varDim)
		gf, gm := gradFake.Data(), sh.gradMSE.Data()
		for i := range gf {
			gf[i] += w * gm[i]
		}
	}
	nn.BackwardWindow(g.sgen.Net(s), gradFake, 0, 0)
	return nil
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
	var in, noise, genIn nn.Tensor
	var scr nn.InferScratch
	if err := rowsInto(&in, inv, g.invDim); err != nil {
		return nil, err
	}
	acc := make([][]float64, len(inv))
	for i := range acc {
		acc[i] = make([]float64, g.varDim)
	}
	for draw := 0; draw < m; draw++ {
		gaussianNoiseInto(&noise, in.Rows(), g.cfg.NoiseDim, g.rng)
		out := nn.Infer(g.gen, nn.ConcatInto(&genIn, &in, &noise), &scr)
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
