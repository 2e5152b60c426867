package core

import (
	"math"
	"math/rand"
	"time"

	"netdrift/internal/nn"
	"netdrift/internal/par"
)

// Deterministic data-parallel training (DESIGN.md §5d).
//
// Every reconstructor trainer here shards each minibatch into a FIXED number
// of row ranges (cfg.Shards, via par.ShardBounds — a pure function of the
// batch size and the config, never of worker availability), runs
// forward/backward per shard on replica networks (nn.ShardedNet), and merges
// the per-shard gradient arenas with the fixed-shape tree reduction. All
// randomness inside a shard (generator noise, VAE eps, dropout masks) is
// reseeded per (cfg.Seed, step, phase, shard), so a shard's work is a pure
// function of its index. Consequences:
//
//   - at a fixed shard count, trained weights, per-epoch losses, and obs
//     hook event streams are bit-identical for EVERY worker count;
//   - the shard count itself is part of the reproducibility key, like the
//     seed: Shards=4 and Shards=8 are different (equally valid) trainings.
//
// Per-shard losses are computed with the *TN loss variants (gradients
// normalized by the full-batch total, raw partial sums returned) and the
// partials are folded in shard-index order, so epoch losses do not depend on
// execution order either.

// Shard-seed phase tags. Each (step, phase, shard) triple must be unique
// per random stream consumer.
const (
	phaseDiscDropout = iota
	phaseDiscNoise
	phaseGenDropout
	phaseGenNoise
	phaseVAENoise
)

// shardSeed derives the seed for one (step, phase, shard) stream with a
// chained splitmix64 finalizer (same construction as SampleSeed).
func shardSeed(base int64, step, phase, shard int) int64 {
	z := uint64(base)
	for _, k := range [3]uint64{uint64(step + 1), uint64(phase + 1), uint64(shard + 1)} {
		z += k * 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return int64(z)
}

// shardMinRows is the minimum rows per shard: batch-norm training statistics
// need at least two samples.
const shardMinRows = 2

// ganShardScratch is one shard's private buffers, reused across the run.
type ganShardScratch struct {
	bInv, bVar, bLab nn.Tensor // views into the gathered batch
	noise, genIn     nn.Tensor
	discIn           nn.Tensor
	targets, terms   []float64
	grad             nn.Tensor
	gradFake         nn.Tensor
	gradMSE          nn.Tensor
	rng              *rand.Rand
}

// ganShards is the CGAN's sharded-training state.
type ganShards struct {
	gen, disc *nn.ShardedNet
	bounds    []int
	step      int
	n         int // current batch rows
	sh        []ganShardScratch
	dReal     []float64
	dFake     []float64
	gBCE      []float64
	gMSE      []float64
	errs      []error
	// Stable shard bodies, created once so the sequential ForEach fast path
	// stays allocation free.
	discBody func(int)
	genBody  func(int)
	zeroDisc func(int)
}

func newGANShards(g *CGAN) *ganShards {
	k := g.cfg.Shards
	shr := &ganShards{
		gen:   nn.NewSharded(g.gen, k),
		disc:  nn.NewSharded(g.disc, k),
		sh:    make([]ganShardScratch, k),
		dReal: make([]float64, k),
		dFake: make([]float64, k),
		gBCE:  make([]float64, k),
		gMSE:  make([]float64, k),
		errs:  make([]error, k),
	}
	for i := range shr.sh {
		shr.sh[i].rng = nn.NewShardRand(0) // reseeded per (step, phase, shard)
	}
	shr.discBody = g.discShardBody
	shr.genBody = g.genShardBody
	shr.zeroDisc = func(s int) { nn.ZeroGrads(shr.disc.Params(s)) }
	return shr
}

// shardViews points shard s's batch views at its row range.
func (g *CGAN) shardViews(sh *ganShardScratch, lo, hi int) {
	g.scr.bInv.ViewRows(lo, hi, &sh.bInv)
	g.scr.bVar.ViewRows(lo, hi, &sh.bVar)
	if g.cfg.Conditional {
		g.scr.bLab.ViewRows(lo, hi, &sh.bLab)
	}
}

// discShardInput assembles shard-local discriminator input.
func (g *CGAN) discShardInput(sh *ganShardScratch, bVar *nn.Tensor) *nn.Tensor {
	if g.cfg.Conditional {
		return nn.ConcatInto(&sh.discIn, &sh.bInv, bVar, &sh.bLab)
	}
	return nn.ConcatInto(&sh.discIn, &sh.bInv, bVar)
}

// discShardBody is shard s of the discriminator step: real and fake passes
// accumulate into replica s's gradient arena.
func (g *CGAN) discShardBody(s int) {
	t0 := time.Now()
	shr := g.shr
	sh := &shr.sh[s]
	shr.errs[s] = nil
	lo, hi := shr.bounds[s], shr.bounds[s+1]
	rows := hi - lo
	total := float64(shr.n)
	g.shardViews(sh, lo, hi)
	dn, gn := shr.disc.Net(s), shr.gen.Net(s)
	shr.disc.SeedDropouts(s, shardSeed(g.cfg.Seed, shr.step, phaseDiscDropout, s))
	sh.terms = constTargetsInto(sh.terms, rows, 0)
	// Real pass.
	realOut := dn.ForwardT(g.discShardInput(sh, &sh.bVar), true)
	sh.targets = constTargetsInto(sh.targets, rows, 0.9)
	lossReal, err := nn.BCEWithLogitsTN(realOut, sh.targets, &sh.grad, sh.terms, total)
	if err != nil {
		shr.errs[s] = err
		return
	}
	dn.BackwardT(&sh.grad)
	// Fake pass (generator output detached, as in the sequential path).
	sh.rng.Seed(shardSeed(g.cfg.Seed, shr.step, phaseDiscNoise, s))
	gaussianNoiseInto(&sh.noise, rows, g.cfg.NoiseDim, sh.rng)
	fake := gn.ForwardT(nn.ConcatInto(&sh.genIn, &sh.bInv, &sh.noise), true)
	fakeOut := dn.ForwardT(g.discShardInput(sh, fake), true)
	sh.targets = constTargetsInto(sh.targets, rows, 0)
	lossFake, err := nn.BCEWithLogitsTN(fakeOut, sh.targets, &sh.grad, sh.terms, total)
	if err != nil {
		shr.errs[s] = err
		return
	}
	dn.BackwardT(&sh.grad)
	shr.dReal[s], shr.dFake[s] = lossReal, lossFake
	g.cfg.Obs.OnTrainShard(g.Name(), time.Since(t0).Seconds())
}

// genShardBody is shard s of the generator step.
func (g *CGAN) genShardBody(s int) {
	t0 := time.Now()
	shr := g.shr
	sh := &shr.sh[s]
	shr.errs[s] = nil
	shr.gMSE[s] = 0
	lo, hi := shr.bounds[s], shr.bounds[s+1]
	rows := hi - lo
	total := float64(shr.n)
	g.shardViews(sh, lo, hi)
	dn, gn := shr.disc.Net(s), shr.gen.Net(s)
	shr.disc.SeedDropouts(s, shardSeed(g.cfg.Seed, shr.step, phaseGenDropout, s))
	sh.rng.Seed(shardSeed(g.cfg.Seed, shr.step, phaseGenNoise, s))
	gaussianNoiseInto(&sh.noise, rows, g.cfg.NoiseDim, sh.rng)
	fake := gn.ForwardT(nn.ConcatInto(&sh.genIn, &sh.bInv, &sh.noise), true)
	fakeOut := dn.ForwardT(g.discShardInput(sh, fake), true)
	sh.targets = constTargetsInto(sh.targets, rows, 1)
	lossBCE, err := nn.BCEWithLogitsTN(fakeOut, sh.targets, &sh.grad, sh.terms, total)
	if err != nil {
		shr.errs[s] = err
		return
	}
	gradDIn := dn.BackwardT(&sh.grad)
	gradFake := sh.gradFake.Reset(rows, g.varDim)
	for i := 0; i < rows; i++ {
		copy(gradFake.Row(i), gradDIn.Row(i)[g.invDim:g.invDim+g.varDim])
	}
	if g.cfg.AnchorWeight > 0 {
		lossMSE, err := nn.MSETN(fake, &sh.bVar, &sh.gradMSE, float64(shr.n*g.varDim))
		if err != nil {
			shr.errs[s] = err
			return
		}
		w := g.cfg.AnchorWeight * float64(g.varDim)
		gf, gm := gradFake.Data(), sh.gradMSE.Data()
		for i := range gf {
			gf[i] += w * gm[i]
		}
		shr.gMSE[s] = lossMSE
	}
	gn.BackwardT(gradFake)
	shr.gBCE[s] = lossBCE
	g.cfg.Obs.OnTrainShard(g.Name(), time.Since(t0).Seconds())
}

// discStepSharded is the data-parallel discriminator step. It advances the
// step counter (one increment per batch; the generator step that follows
// shares it, distinguished by phase tags).
func (g *CGAN) discStepSharded(opt nn.Optimizer, discParams []*nn.Param) (float64, error) {
	shr := g.shr
	shr.step++
	shr.n = g.scr.bInv.Rows()
	shr.bounds = par.ShardBounds(shr.bounds, shr.n, g.cfg.Shards, shardMinRows)
	eff := len(shr.bounds) - 1
	par.ForEach(g.cfg.Workers, eff, shr.discBody)
	for s := 0; s < eff; s++ {
		if shr.errs[s] != nil {
			return 0, shr.errs[s]
		}
	}
	shr.disc.ReduceGrads(g.cfg.Workers)
	opt.Step(discParams) // zeroes the canonical grads it consumed
	// The fake pass ran the generator replicas' batch norms with deferred
	// statistics: fold them into the canonical generator, in shard order.
	shr.gen.FoldBatchStats()
	var loss float64
	for s := 0; s < eff; s++ {
		loss += shr.dReal[s] + shr.dFake[s]
	}
	return loss / float64(shr.n), nil
}

// genStepSharded is the data-parallel generator step for the batch the
// preceding discStepSharded processed.
func (g *CGAN) genStepSharded(opt nn.Optimizer, genParams []*nn.Param) (float64, error) {
	shr := g.shr
	eff := len(shr.bounds) - 1
	par.ForEach(g.cfg.Workers, eff, shr.genBody)
	for s := 0; s < eff; s++ {
		if shr.errs[s] != nil {
			return 0, shr.errs[s]
		}
	}
	shr.gen.ReduceGrads(g.cfg.Workers)
	opt.Step(genParams)
	shr.gen.FoldBatchStats()
	// Backing the adversarial gradient through D leaked gradients into the
	// disc arenas of every shard that ran; drop them (the sequential path's
	// ZeroGrads(discParams), per arena).
	par.ForEach(g.cfg.Workers, eff, shr.zeroDisc)
	var bce, mse float64
	for s := 0; s < eff; s++ {
		bce += shr.gBCE[s]
		mse += shr.gMSE[s]
	}
	loss := bce / float64(shr.n)
	if g.cfg.AnchorWeight > 0 {
		w := g.cfg.AnchorWeight * float64(g.varDim)
		loss += w * (mse / float64(shr.n*g.varDim))
	}
	return loss, nil
}

// vaeShardScratch is one VAE shard's private buffers.
type vaeShardScratch struct {
	bInv, bVar nn.Tensor // views
	encIn      nn.Tensor
	eps, z     nn.Tensor
	decIn      nn.Tensor
	gradRecon  nn.Tensor
	gradEnc    nn.Tensor
	rng        *rand.Rand
}

// vaeShards is the VAE's sharded-training state.
type vaeShards struct {
	enc, dec *nn.ShardedNet
	bounds   []int
	step     int
	n        int
	sh       []vaeShardScratch
	recon    []float64
	errs     []error
	body     func(int)
}

func newVAEShards(v *VAE) *vaeShards {
	k := v.cfg.Shards
	shr := &vaeShards{
		enc:   nn.NewSharded(v.encoder, k),
		dec:   nn.NewSharded(v.decoder, k),
		sh:    make([]vaeShardScratch, k),
		recon: make([]float64, k),
		errs:  make([]error, k),
	}
	for i := range shr.sh {
		shr.sh[i].rng = nn.NewShardRand(0)
	}
	shr.body = v.shardBody
	return shr
}

// shardBody is shard s of one VAE minibatch update.
func (v *VAE) shardBody(s int) {
	t0 := time.Now()
	shr := v.shr
	sh := &shr.sh[s]
	shr.errs[s] = nil
	lo, hi := shr.bounds[s], shr.bounds[s+1]
	rows := hi - lo
	ld := v.cfg.LatentDim
	v.scr.bInv.ViewRows(lo, hi, &sh.bInv)
	v.scr.bVar.ViewRows(lo, hi, &sh.bVar)

	encOut := shr.enc.Net(s).ForwardT(nn.ConcatInto(&sh.encIn, &sh.bInv, &sh.bVar), true)
	sh.rng.Seed(shardSeed(v.cfg.Seed, shr.step, phaseVAENoise, s))
	gaussianNoiseInto(&sh.eps, rows, ld, sh.rng)
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

	recon := shr.dec.Net(s).ForwardT(nn.ConcatInto(&sh.decIn, &sh.bInv, z), true)
	lossRecon, err := nn.MSETN(recon, &sh.bVar, &sh.gradRecon, float64(shr.n*v.varDim))
	if err != nil {
		shr.errs[s] = err
		return
	}
	gradDecIn := shr.dec.Net(s).BackwardT(&sh.gradRecon)

	// KL term normalized by the FULL batch, like the sequential path.
	klNorm := v.cfg.KLWeight / float64(shr.n*ld)
	gradEnc := sh.gradEnc.Reset(rows, 2*ld)
	for i := 0; i < rows; i++ {
		enc := encOut.Row(i)
		mu, logvar := enc[:ld], enc[ld:]
		epsRow := sh.eps.Row(i)
		dec := gradDecIn.Row(i)
		ge := gradEnc.Row(i)
		for k := 0; k < ld; k++ {
			lv := clamp(logvar[k], -8, 8)
			dz := dec[v.invDim+k]
			ge[k] = dz + klNorm*mu[k]
			ge[ld+k] = dz*0.5*math.Exp(0.5*lv)*epsRow[k] +
				klNorm*0.5*(math.Exp(lv)-1)
		}
	}
	shr.enc.Net(s).BackwardT(gradEnc)
	shr.recon[s] = lossRecon
	v.cfg.Obs.OnTrainShard(v.Name(), time.Since(t0).Seconds())
}

// stepSharded is the data-parallel VAE minibatch update.
func (v *VAE) stepSharded(opt nn.Optimizer, params []*nn.Param) (float64, error) {
	shr := v.shr
	shr.step++
	shr.n = v.scr.bInv.Rows()
	shr.bounds = par.ShardBounds(shr.bounds, shr.n, v.cfg.Shards, shardMinRows)
	eff := len(shr.bounds) - 1
	par.ForEach(v.cfg.Workers, eff, shr.body)
	for s := 0; s < eff; s++ {
		if shr.errs[s] != nil {
			return 0, shr.errs[s]
		}
	}
	shr.enc.ReduceGrads(v.cfg.Workers)
	shr.dec.ReduceGrads(v.cfg.Workers)
	opt.Step(params)
	shr.dec.FoldBatchStats() // encoder has no batch norms
	var loss float64
	for s := 0; s < eff; s++ {
		loss += shr.recon[s]
	}
	return loss / float64(shr.n*v.varDim), nil
}

// aeShardScratch is one VanillaAE shard's private buffers.
type aeShardScratch struct {
	bInv, bVar nn.Tensor // views
	grad       nn.Tensor
}

// aeShards is the VanillaAE's sharded-training state.
type aeShards struct {
	net    *nn.ShardedNet
	bounds []int
	n      int
	sh     []aeShardScratch
	loss   []float64
	errs   []error
	body   func(int)
}

func newAEShards(a *VanillaAE) *aeShards {
	k := a.cfg.Shards
	shr := &aeShards{
		net:  nn.NewSharded(a.net, k),
		sh:   make([]aeShardScratch, k),
		loss: make([]float64, k),
		errs: make([]error, k),
	}
	shr.body = a.shardBody
	return shr
}

// shardBody is shard s of one VanillaAE minibatch update. The network is
// deterministic given its input (no noise, no dropout), so no reseeding is
// needed; batch-norm statistics still defer and fold in shard order.
func (a *VanillaAE) shardBody(s int) {
	t0 := time.Now()
	shr := a.shr
	sh := &shr.sh[s]
	shr.errs[s] = nil
	lo, hi := shr.bounds[s], shr.bounds[s+1]
	a.bInv.ViewRows(lo, hi, &sh.bInv)
	a.bVar.ViewRows(lo, hi, &sh.bVar)
	out := shr.net.Net(s).ForwardT(&sh.bInv, true)
	loss, err := nn.MSETN(out, &sh.bVar, &sh.grad, float64(shr.n*a.varDim))
	if err != nil {
		shr.errs[s] = err
		return
	}
	shr.net.Net(s).BackwardT(&sh.grad)
	shr.loss[s] = loss
	a.cfg.Obs.OnTrainShard(a.Name(), time.Since(t0).Seconds())
}

// stepSharded is the data-parallel VanillaAE minibatch update.
func (a *VanillaAE) stepSharded(opt nn.Optimizer, params []*nn.Param) (float64, error) {
	shr := a.shr
	shr.n = a.bInv.Rows()
	shr.bounds = par.ShardBounds(shr.bounds, shr.n, a.cfg.Shards, shardMinRows)
	eff := len(shr.bounds) - 1
	par.ForEach(a.cfg.Workers, eff, shr.body)
	for s := 0; s < eff; s++ {
		if shr.errs[s] != nil {
			return 0, shr.errs[s]
		}
	}
	shr.net.ReduceGrads(a.cfg.Workers)
	opt.Step(params)
	shr.net.FoldBatchStats()
	var loss float64
	for s := 0; s < eff; s++ {
		loss += shr.loss[s]
	}
	return loss / float64(shr.n*a.varDim), nil
}
