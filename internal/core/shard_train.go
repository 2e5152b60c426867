package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"netdrift/internal/nn"
	"netdrift/internal/obs"
	"netdrift/internal/par"
)

// One trainer for every reconstructor (DESIGN.md §5f).
//
// Every Fit runs the same epoch loop (trainer.fit) and every optimizer
// update the same shard harness (trainer.run). Each minibatch is split into
// a FIXED number of row ranges (Shards, via par.ShardBounds — a pure
// function of the batch size and the config, never of worker availability);
// a phase runs its per-shard body over each range on replica networks
// (nn.ShardedNet), merges the shard gradients with the fixed-shape tree
// reduction, steps the optimizer, and folds the deferred batch-norm
// statistics and each loss term's shard partials in shard-index order.
// Consequences:
//
//   - at a fixed shard count, trained weights, per-epoch losses, and obs
//     hook event streams are bit-identical for EVERY worker count;
//   - the shard count itself is part of the reproducibility key, like the
//     seed: Shards=4 and Shards=8 are different (equally valid) trainings.
//
// Shards ≤ 1 is the harness's one-shard case, not a second trainer: the
// replica is the network itself, and every draw comes from the model's own
// seeded stream in the order the step body makes it. There the Workers are
// a fork-join team (par.Team) that lives for one fit: the calling
// goroutine runs the step body, draws included, and each hot kernel (the
// Dense forward, weight gradient and input gradient, the Adam update)
// splits its outputs across the team, so every bit is the sequential one.
// With more shards every draw site reseeds a private stream per (Seed,
// step, phase, shard), so a shard's work is a pure function of its index
// (trainer.rand).

// ErrFitInput is wrapped by every error a reconstructor's Fit returns for
// training data it cannot train on.
var ErrFitInput = errors.New("core: invalid fit input")

// checkFitInput validates a Fit call's training data: at least one row,
// one variant row per invariant row, at least one variant column, every
// row of a group as wide as its first, and one label per row when labels
// are needed or given.
func checkFitInput(inv, vr [][]float64, y []int, needLabels bool) error {
	if len(inv) == 0 || len(inv) != len(vr) {
		return fmt.Errorf("%w: %d invariant rows for %d variant rows", ErrFitInput, len(inv), len(vr))
	}
	if len(vr[0]) == 0 {
		return fmt.Errorf("%w: no variant features", ErrFitInput)
	}
	for i := range inv {
		if len(inv[i]) != len(inv[0]) {
			return fmt.Errorf("%w: invariant row %d has width %d, want %d", ErrFitInput, i, len(inv[i]), len(inv[0]))
		}
		if len(vr[i]) != len(vr[0]) {
			return fmt.Errorf("%w: variant row %d has width %d, want %d", ErrFitInput, i, len(vr[i]), len(vr[0]))
		}
	}
	if (needLabels || y != nil) && len(y) != len(inv) {
		return fmt.Errorf("%w: %d labels for %d rows", ErrFitInput, len(y), len(inv))
	}
	return nil
}

// Shard-seed phase tags. Each (step, phase, shard) triple must be unique
// per random stream consumer.
const (
	phaseDiscDropout = iota
	phaseDiscNoise
	phaseGenDropout
	phaseGenNoise
	phaseVAENoise
)

// shardMinRows is the minimum rows per shard: batch-norm training statistics
// need at least two samples.
const shardMinRows = 2

// trainOpts are the harness settings every reconstructor config carries.
type trainOpts struct {
	seed            int64
	shards, workers int
	obs             *obs.Observer
}

// trainer is the harness state of one Fit.
type trainer struct {
	name    string
	seed    int64
	shards  int // configured shard count, ≥ 1
	workers int
	obs     *obs.Observer
	rng     *rand.Rand // the model's own stream: batch order, and every draw of a one-shard run

	inv, vr, lab [][]float64
	nets         []*nn.ShardedNet // every replicated network, folded after each phase
	rngs         []*rand.Rand     // per-shard reseedable streams (shards > 1)
	views        []shardBatch

	// The current minibatch.
	perm             []int
	batches          [][]int
	bInv, bVar, bLab nn.Tensor
	n                int   // rows
	bounds           []int // shard row ranges
	step             int   // 1-based minibatch count, the shard-seed step
}

// shardBatch is one shard's row views into the current minibatch.
type shardBatch struct {
	inv, vr, lab nn.Tensor
}

// newTrainer checks a Fit call's training data (checkFitInput) and returns
// the harness that trains on it, seeded from o.seed.
func newTrainer(name string, o trainOpts, inv, vr [][]float64, y []int, needLabels bool) (*trainer, error) {
	if err := checkFitInput(inv, vr, y, needLabels); err != nil {
		return nil, err
	}
	k := max(o.shards, 1)
	tr := &trainer{
		name: name, seed: o.seed, shards: k, workers: o.workers, obs: o.obs,
		rng: rand.New(rand.NewSource(o.seed)),
		inv: inv, vr: vr,
		views: make([]shardBatch, k),
	}
	if k > 1 {
		tr.rngs = make([]*rand.Rand, k)
		for s := range tr.rngs {
			tr.rngs[s] = nn.NewShardRand(0) // reseeded per (step, phase, shard)
		}
	}
	return tr, nil
}

// net replicates root across the trainer's shards and registers it for the
// batch-statistics fold. With one shard the replica is root itself.
func (tr *trainer) net(root nn.Layer) *nn.ShardedNet {
	sn := nn.NewSharded(root, tr.shards)
	tr.nets = append(tr.nets, sn)
	return sn
}

// shardSeed derives the seed for shard s's stream at the draw site tagged
// tag (a phase tag) in the current step with a chained splitmix64
// finalizer (same construction as SampleSeed).
func (tr *trainer) shardSeed(tag, s int) int64 {
	z := uint64(tr.seed)
	for _, k := range [3]uint64{uint64(tr.step + 1), uint64(tag + 1), uint64(s + 1)} {
		z += k * 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return int64(z)
}

// rand returns shard s's stream for the draw site tagged tag. A one-shard
// run draws from the model's own stream, never reseeded; with more shards
// every call reseeds shard s's private stream from shardSeed. This is the
// only place a one-shard run differs from a k-shard run (its dropouts keep
// their own rng because nn.NewSharded(root, 1) is root itself).
func (tr *trainer) rand(s, tag int) *rand.Rand {
	if tr.shards == 1 {
		return tr.rng
	}
	r := tr.rngs[s]
	r.Seed(tr.shardSeed(tag, s))
	return r
}

// shardBody is one shard's share of a phase: forward and backward over the
// shard's rows b on replica s, with gradients normalized by the FULL
// batch's totals (tr.n rows), writing each loss term's raw sum into loss.
type shardBody func(tr *trainer, s int, b *shardBatch, loss []float64) error

// lossTerm is one term of a phase's loss: its shard partials fold in shard
// order, are divided by rows×per, and enter the phase loss times weight.
type lossTerm struct {
	per    int // normalizer per row: 1 for per-row terms, the width for per-element terms
	weight float64
}

// phase is one optimizer update of a training step.
type phase struct {
	body   shardBody
	opt    *nn.Adam
	params []*nn.Param
	grads  []*nn.ShardedNet // nets whose shard gradients merge before the step
	terms  []lossTerm

	parts [][]float64 // parts[s]: shard s's raw loss sums, one per term
	errs  []error
	run   func(s int) // stable closure: the sequential par.ForEach stays allocation free
}

// phase builds an optimizer update: body runs on every shard, the shard
// gradients of grads merge, and opt steps params.
func (tr *trainer) phase(body shardBody, opt *nn.Adam, params []*nn.Param, grads []*nn.ShardedNet, terms ...lossTerm) *phase {
	p := &phase{
		body: body, opt: opt, params: params, grads: grads, terms: terms,
		parts: make([][]float64, tr.shards),
		errs:  make([]error, tr.shards),
	}
	for s := range p.parts {
		p.parts[s] = make([]float64, len(terms))
	}
	p.run = func(s int) {
		t0 := time.Now()
		lo, hi := tr.bounds[s], tr.bounds[s+1]
		b := &tr.views[s]
		tr.bInv.ViewRows(lo, hi, &b.inv)
		tr.bVar.ViewRows(lo, hi, &b.vr)
		if tr.lab != nil {
			tr.bLab.ViewRows(lo, hi, &b.lab)
		}
		loss := p.parts[s]
		clear(loss)
		p.errs[s] = p.body(tr, s, b, loss)
		tr.obs.OnTrainShard(tr.name, time.Since(t0).Seconds())
	}
	return p
}

// run executes p over the current minibatch and returns its loss.
func (tr *trainer) run(p *phase) (float64, error) {
	eff := len(tr.bounds) - 1
	par.ForEach(tr.workers, eff, p.run)
	for _, err := range p.errs[:eff] {
		if err != nil {
			return 0, err
		}
	}
	for _, sn := range p.grads {
		sn.ReduceGrads(tr.workers)
	}
	p.opt.Step(p.params) // zeroes the canonical grads it consumed
	for _, sn := range tr.nets {
		sn.FoldBatchStats()
	}
	var loss float64
	for t, term := range p.terms {
		var sum float64
		for s := 0; s < eff; s++ {
			sum += p.parts[s][t]
		}
		loss += term.weight * (sum / float64(tr.n*term.per))
	}
	return loss, nil
}

// useTeam splits the one-shard step's kernels across team (nil unsets
// it): every network's Dense layers and every phase's optimizer.
func (tr *trainer) useTeam(team *par.Team, phases []*phase) {
	for _, sn := range tr.nets {
		sn.SetTeam(team)
	}
	for _, p := range phases {
		p.opt.SetTeam(team)
	}
}

// fit is the epoch loop every reconstructor shares. Each epoch shuffles the
// rows into minibatches with the model's rng, gathers each batch (with its
// lab rows when lab is non-nil), splits it into shards, and runs the phases
// in order. The last phase's per-epoch mean loss is reported as the
// generator loss; two phases make an adversarial step whose first phase is
// the discriminator's.
func (tr *trainer) fit(epochs, batchSize int, lab [][]float64, phases ...*phase) error {
	tr.lab = lab
	if tr.shards == 1 && par.Resolve(tr.workers) > 1 {
		team := par.NewTeam(tr.workers)
		tr.useTeam(team, phases)
		defer team.Close()
		defer tr.useTeam(nil, phases)
	}
	sums := make([]float64, len(phases))
	bestLoss := math.Inf(1)
	convergedEpoch := 0
	for epoch := 0; epoch < epochs; epoch++ {
		clear(sums)
		tr.perm, tr.batches = nn.MinibatchesInto(len(tr.inv), batchSize, tr.rng, tr.perm, tr.batches)
		for _, idx := range tr.batches {
			nn.GatherInto(&tr.bInv, tr.inv, idx)
			nn.GatherInto(&tr.bVar, tr.vr, idx)
			if lab != nil {
				nn.GatherInto(&tr.bLab, lab, idx)
			}
			tr.n = len(idx)
			tr.bounds = par.ShardBounds(tr.bounds, tr.n, tr.shards, shardMinRows)
			tr.step++
			for i, p := range phases {
				loss, err := tr.run(p)
				if err != nil {
					return fmt.Errorf("core: %s epoch %d: %w", tr.name, epoch, err)
				}
				sums[i] += loss
			}
		}
		batches := float64(len(tr.batches))
		e := obs.TrainEpoch{Model: tr.name, Epoch: epoch, GenLoss: sums[len(sums)-1] / batches}
		if len(phases) == 2 {
			e.DiscLoss, e.Adversarial = sums[0]/batches, true
		}
		if e.GenLoss < bestLoss {
			bestLoss = e.GenLoss
			convergedEpoch = epoch + 1
		}
		tr.obs.OnTrainEpoch(e)
	}
	tr.obs.OnTrainDone(obs.TrainDone{Model: tr.name, Epochs: epochs, ConvergedEpoch: convergedEpoch})
	return nil
}
