package core

import (
	"math"
	"math/rand"

	"netdrift/internal/nn"
	"netdrift/internal/obs"
)

// VAEConfig tunes the conditional VAE ablation reconstructor (Table II).
type VAEConfig struct {
	Epochs    int     // default 60
	BatchSize int     // default 64
	LR        float64 // default 1e-3
	LatentDim int     // default from data dimension
	Hidden    int     // default from data dimension
	KLWeight  float64 // default 0.05
	Seed      int64
	// Shards and Workers mirror GANConfig: Shards fixes the deterministic
	// gradient-shard count (0 or 1 = one shard, drawing from the model's
	// own seeded streams) and is part of the reproducibility key; Workers
	// bounds the goroutines that run whole shards (Shards > 1) or split
	// the one shard's Dense and Adam kernels, and never changes the
	// trained bits. Never serialized.
	Shards  int `json:"-"`
	Workers int `json:"-"`
	// Obs, when non-nil, receives per-epoch training losses. It never
	// changes the training math or the RNG stream. Never serialized.
	Obs *obs.Observer `json:"-"`
}

func (c *VAEConfig) applyDefaults(numFeatures int) {
	if c.Epochs == 0 {
		c.Epochs = 60
	}
	if c.BatchSize == 0 {
		c.BatchSize = 64
	}
	if c.LR == 0 {
		c.LR = 1e-3
	}
	if c.LatentDim == 0 {
		c.LatentDim = noiseDim(numFeatures)
	}
	if c.Hidden == 0 {
		c.Hidden = hiddenDim(numFeatures)
	}
	if c.KLWeight == 0 {
		c.KLWeight = 0.05
	}
}

// VAE is the conditional variational autoencoder ablation: an encoder maps
// [X_inv, X_var] to a latent Gaussian; the decoder reconstructs X_var from
// [X_inv, z]. At inference z is drawn from the prior, mirroring the GAN's
// noise input. The decoder architecture matches the generator (§VI-E).
type VAE struct {
	cfg VAEConfig

	encoder        *nn.Network // -> [mu, logvar]
	decoder        *nn.Network
	invDim, varDim int
	rng            *rand.Rand
	fixedZ         []float64 // pinned inference latent (mirrors the GAN's M=1)
	trained        bool

	// Training state: the shard replicas and each shard's reused buffers.
	senc, sdec *nn.ShardedNet
	sh         []vaeShard
}

// vaeShard is one VAE shard's private training buffers.
type vaeShard struct {
	encIn     nn.Tensor // [inv | var]
	eps, z    nn.Tensor
	decIn     nn.Tensor // [inv | z]
	gradRecon nn.Tensor
	gradEnc   nn.Tensor
}

var _ Reconstructor = (*VAE)(nil)

// NewVAE creates an untrained conditional VAE reconstructor.
func NewVAE(cfg VAEConfig) *VAE {
	return &VAE{cfg: cfg}
}

// Name implements Reconstructor.
func (v *VAE) Name() string { return "VAE" }

// Fit trains encoder and decoder with the reparameterization trick.
func (v *VAE) Fit(inv, vr [][]float64, y []int, _ int) error {
	tr, err := newTrainer(v.Name(), trainOpts{v.cfg.Seed, v.cfg.Shards, v.cfg.Workers, v.cfg.Obs}, inv, vr, y, false)
	if err != nil {
		return err
	}
	v.invDim = len(inv[0])
	v.varDim = len(vr[0])
	v.cfg.applyDefaults(v.invDim + v.varDim)
	v.rng = tr.rng

	h := v.cfg.Hidden
	ld := v.cfg.LatentDim
	v.encoder = nn.NewNetwork(
		nn.NewDense(v.invDim+v.varDim, h, v.rng),
		nn.NewReLU(),
		nn.NewDense(h, 2*ld, v.rng),
	)
	v.decoder = nn.NewNetwork(
		nn.NewSkipConcat(nn.NewNetwork(
			nn.NewDense(v.invDim+ld, h, v.rng),
			nn.NewBatchNorm(h),
			nn.NewReLU(),
			nn.NewDense(h, h, v.rng),
			nn.NewBatchNorm(h),
			nn.NewReLU(),
		)),
		nn.NewDense(h+v.invDim+ld, v.varDim, v.rng),
		nn.NewTanh(),
	)
	v.senc, v.sdec = tr.net(v.encoder), tr.net(v.decoder)
	v.sh = make([]vaeShard, tr.shards)
	// The monitored loss is the reconstruction MSE; the KL term is folded
	// into the gradients only.
	step := tr.phase(v.shard, nn.NewAdam(v.cfg.LR, 1e-6), append(v.encoder.Params(), v.decoder.Params()...),
		[]*nn.ShardedNet{v.senc, v.sdec}, lossTerm{v.varDim, 1})
	if err := tr.fit(v.cfg.Epochs, v.cfg.BatchSize, nil, step); err != nil {
		return err
	}
	v.fixedZ = make([]float64, v.cfg.LatentDim) // prior mean
	v.trained = true
	return nil
}

// shard is shard s of one VAE minibatch update. Loss term: the
// reconstruction squared-error sum.
func (v *VAE) shard(tr *trainer, s int, b *shardBatch, loss []float64) error {
	sh := &v.sh[s]
	rows := b.inv.Rows()
	ld := v.cfg.LatentDim

	encOut := v.senc.Net(s).ForwardT(nn.ConcatInto(&sh.encIn, &b.inv, &b.vr))
	gaussianNoiseInto(&sh.eps, rows, ld, tr.rand(s, phaseVAENoise))
	z := sh.z.Reset(rows, ld)
	for i := 0; i < rows; i++ {
		enc := encOut.Row(i)
		mu, logvar := enc[:ld], enc[ld:]
		epsRow := sh.eps.Row(i)
		zi := z.Row(i)
		for k := 0; k < ld; k++ {
			lv := clamp(logvar[k], -8, 8)
			zi[k] = mu[k] + math.Exp(0.5*lv)*epsRow[k]
		}
	}

	dec := v.sdec.Net(s)
	recon := dec.ForwardT(nn.ConcatInto(&sh.decIn, &b.inv, z))
	var err error
	if loss[0], err = nn.MSETN(recon, &b.vr, &sh.gradRecon, float64(tr.n*v.varDim)); err != nil {
		return err
	}
	// Only the latent block of the decoder's input gradient is read.
	gradDecIn := nn.BackwardWindow(dec, &sh.gradRecon, v.invDim, v.invDim+ld)

	// Assemble encoder-output gradient: reconstruction path through z plus
	// the KL term, normalized per latent unit of the FULL batch like the
	// MSE. encOut is still the encoder's live output scratch — no encoder
	// pass has run since.
	klNorm := v.cfg.KLWeight / float64(tr.n*ld)
	gradEnc := sh.gradEnc.Reset(rows, 2*ld)
	for i := 0; i < rows; i++ {
		enc := encOut.Row(i)
		mu, logvar := enc[:ld], enc[ld:]
		epsRow := sh.eps.Row(i)
		dz := gradDecIn.Row(i)[v.invDim:]
		ge := gradEnc.Row(i)
		for k := 0; k < ld; k++ {
			lv := clamp(logvar[k], -8, 8)
			// dz/dmu = 1; dz/dlogvar = 0.5·exp(0.5·lv)·eps.
			ge[k] = dz[k] + klNorm*mu[k]                      // dKL/dmu = mu
			ge[ld+k] = dz[k]*0.5*math.Exp(0.5*lv)*epsRow[k] + //
				klNorm*0.5*(math.Exp(lv)-1) // dKL/dlogvar = (exp(lv)-1)/2
		}
	}
	nn.BackwardWindow(v.senc.Net(s), gradEnc, 0, 0)
	return nil
}

// ReconstructT implements Reconstructor: the decoder runs on
// [inv | fixedZ] for every row in one inference pass. The latent is pinned
// at the prior mean (the GAN's M=1 counterpart), so seeds are ignored.
func (v *VAE) ReconstructT(inv *nn.Tensor, seeds []int64, scr *AdaptScratch) (*nn.Tensor, error) {
	if !v.trained {
		return nil, ErrNotFitted
	}
	if err := checkReconInput(inv, seeds, v.invDim); err != nil {
		return nil, err
	}
	z := scr.noise.Reset(inv.Rows(), len(v.fixedZ))
	for i := 0; i < z.Rows(); i++ {
		copy(z.Row(i), v.fixedZ)
	}
	return nn.Infer(v.decoder, nn.ConcatInto(&scr.genIn, inv, z), &scr.infer), nil
}

// VanillaAE is the deterministic autoencoder ablation: a direct regression
// from invariant to variant features with the generator's architecture but
// no noise input and no adversary (§VI-E).
type VanillaAE struct {
	cfg VAEConfig

	net            *nn.Network
	invDim, varDim int
	trained        bool

	// Training state: the shard replicas and each shard's gradient buffer.
	snet  *nn.ShardedNet
	grads []nn.Tensor
}

var _ Reconstructor = (*VanillaAE)(nil)

// NewVanillaAE creates an untrained deterministic reconstructor.
func NewVanillaAE(cfg VAEConfig) *VanillaAE {
	return &VanillaAE{cfg: cfg}
}

// Name implements Reconstructor.
func (a *VanillaAE) Name() string { return "VanillaAE" }

// Fit trains the regression network with MSE.
func (a *VanillaAE) Fit(inv, vr [][]float64, y []int, _ int) error {
	tr, err := newTrainer(a.Name(), trainOpts{a.cfg.Seed, a.cfg.Shards, a.cfg.Workers, a.cfg.Obs}, inv, vr, y, false)
	if err != nil {
		return err
	}
	a.invDim = len(inv[0])
	a.varDim = len(vr[0])
	a.cfg.applyDefaults(a.invDim + a.varDim)
	h := a.cfg.Hidden
	a.net = nn.NewNetwork(
		nn.NewSkipConcat(nn.NewNetwork(
			nn.NewDense(a.invDim, h, tr.rng),
			nn.NewBatchNorm(h),
			nn.NewReLU(),
			nn.NewDense(h, h, tr.rng),
			nn.NewBatchNorm(h),
			nn.NewReLU(),
		)),
		nn.NewDense(h+a.invDim, a.varDim, tr.rng),
		nn.NewTanh(),
	)
	a.snet = tr.net(a.net)
	a.grads = make([]nn.Tensor, tr.shards)
	step := tr.phase(a.shard, nn.NewAdam(a.cfg.LR, 1e-6), a.net.Params(),
		[]*nn.ShardedNet{a.snet}, lossTerm{a.varDim, 1})
	if err := tr.fit(a.cfg.Epochs, a.cfg.BatchSize, nil, step); err != nil {
		return err
	}
	a.trained = true
	return nil
}

// shard is shard s of one VanillaAE minibatch update. The network is
// deterministic given its input (no noise, no dropout). Loss term: the
// squared-error sum.
func (a *VanillaAE) shard(tr *trainer, s int, b *shardBatch, loss []float64) error {
	net, grad := a.snet.Net(s), &a.grads[s]
	out := net.ForwardT(&b.inv)
	var err error
	if loss[0], err = nn.MSETN(out, &b.vr, grad, float64(tr.n*a.varDim)); err != nil {
		return err
	}
	nn.BackwardWindow(net, grad, 0, 0)
	return nil
}

// ReconstructT implements Reconstructor: one inference pass of the
// regression network. The ablation has no noise input, so seeds are
// ignored.
func (a *VanillaAE) ReconstructT(inv *nn.Tensor, seeds []int64, scr *AdaptScratch) (*nn.Tensor, error) {
	if !a.trained {
		return nil, ErrNotFitted
	}
	if err := checkReconInput(inv, seeds, a.invDim); err != nil {
		return nil, err
	}
	return nn.Infer(a.net, inv, &scr.infer), nil
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
