package nn

import (
	"fmt"
	"math/rand"

	"netdrift/internal/par"
)

// ShardedNet runs one network as a fixed set of gradient-shard replicas for
// deterministic data-parallel training.
//
// Replica 0 shares the canonical network's *Param objects outright, so the
// merged gradient lands in the canonical Grad arenas and the existing
// optimizers (whose Adam state is keyed on the canonical *Param pointers)
// work unchanged. Replicas r ≥ 1 share the canonical Data slices — a
// parameter update is immediately visible to every replica — but own fresh
// Grad arenas, giving each shard a private accumulation target.
//
// The determinism contract: the replica count is fixed by configuration
// (never by worker availability), every shard's backward writes only its
// own arena, ReduceGrads merges the arenas with the fixed-shape binary
// tree of par.TreeReduce (elementwise vadd, combine order a pure function
// of the shard index), and FoldBatchStats applies deferred batch-norm
// statistics in shard-index order. The merged gradient, the updated
// parameters, and the running statistics are therefore bit-identical at
// every worker count.
//
// With two or more shards the canonical network must never run a training
// forward while sharded training is active (its scratch is unused;
// inference between epochs is fine). BatchNorm replicas run with deferred
// statistics (ghost batch norm) and need at least two rows per shard — use
// par.ShardBounds with minRows 2, which never splits a batch below that.
type ShardedNet struct {
	replicas []Layer
	params   [][]*Param     // per replica, traversal order
	bns      [][]*BatchNorm // per replica, traversal order
	canonBNs []*BatchNorm
	drops    [][]*Dropout // per replica, traversal order

	combineFn func(dst, src int) // stable closure: ReduceGrads stays alloc-free
}

// NewSharded builds shards replicas of root. One shard is root itself: no
// clone, no deferred statistics (its batch norms update their running
// statistics in the forward, as an unsharded network does), and its
// dropouts keep their own rng — SeedDropouts and FoldBatchStats are no-ops
// on it — so a one-shard run trains exactly as root alone would. Panics
// when shards < 1 or when the network contains a layer type it cannot
// replicate (custom layers outside this package).
func NewSharded(root Layer, shards int) *ShardedNet {
	if shards < 1 {
		panic(fmt.Sprintf("nn: NewSharded with %d shards", shards))
	}
	if shards == 1 {
		return &ShardedNet{
			replicas: []Layer{root},
			params:   [][]*Param{root.Params()},
			drops:    [][]*Dropout{nil},
		}
	}
	sn := &ShardedNet{}
	walkLayers(root, func(l Layer) {
		if bn, ok := l.(*BatchNorm); ok {
			sn.canonBNs = append(sn.canonBNs, bn)
		}
	})
	for r := 0; r < shards; r++ {
		rep := cloneForShard(root, r == 0)
		sn.replicas = append(sn.replicas, rep)
		sn.params = append(sn.params, rep.Params())
		var bns []*BatchNorm
		var drops []*Dropout
		walkLayers(rep, func(l Layer) {
			switch v := l.(type) {
			case *BatchNorm:
				bns = append(bns, v)
			case *Dropout:
				drops = append(drops, v)
			}
		})
		sn.bns = append(sn.bns, bns)
		sn.drops = append(sn.drops, drops)
	}
	sn.combineFn = func(dst, src int) {
		pd, ps := sn.params[dst], sn.params[src]
		for p := range pd {
			g := ps[p].Grad
			vadd(pd[p].Grad, g)
			for i := range g {
				g[i] = 0
			}
		}
	}
	return sn
}

// Net returns replica r's network.
func (sn *ShardedNet) Net(r int) Layer { return sn.replicas[r] }

// SeedDropouts reseeds every dropout layer of replica r from base, mixing in
// the layer index so stacked dropouts draw distinct streams. Trainers call
// it with a per-(step, phase, shard) seed before each shard forward, making
// mask draws independent of both execution order and worker count.
func (sn *ShardedNet) SeedDropouts(r int, base int64) {
	for i, d := range sn.drops[r] {
		d.rng.Seed(mixSeed(base, i))
	}
}

// ReduceGrads merges the per-shard gradient arenas into the canonical Grad
// slices (replica 0's params) with the fixed-shape tree reduction, zeroing
// every source arena as it is absorbed — after the call, replicas 1..k-1
// hold all-zero grads, ready for the next accumulation. workers only sets
// the parallelism of a level; the combine schedule and the bits of the
// result depend solely on the shard count.
func (sn *ShardedNet) ReduceGrads(workers int) {
	par.TreeReduce(workers, len(sn.replicas), sn.combineFn)
}

// FoldBatchStats applies the deferred batch statistics stashed by the
// replicas' training forwards to the canonical network's running
// statistics, in shard-index order per layer. Replicas whose flag is not
// pending (e.g. a shard that did not run) are skipped.
func (sn *ShardedNet) FoldBatchStats() {
	for j, cbn := range sn.canonBNs {
		for r := range sn.replicas {
			sn.bns[r][j].FoldStatsInto(cbn)
		}
	}
}

// cloneShardParam returns the canonical param itself for replica 0, or a
// Data-sharing copy with a fresh gradient arena otherwise.
func cloneShardParam(p *Param, canonical bool) *Param {
	if canonical {
		return p
	}
	return &Param{Name: p.Name, Data: p.Data, Grad: make([]float64, len(p.Grad)), steps: p.steps}
}

func cloneForShard(l Layer, canonical bool) Layer {
	switch v := l.(type) {
	case *Network:
		out := &Network{Layers: make([]Layer, len(v.Layers))}
		for i, c := range v.Layers {
			out.Layers[i] = cloneForShard(c, canonical)
		}
		return out
	case *SkipConcat:
		return &SkipConcat{Inner: cloneForShard(v.Inner, canonical)}
	case *Dense:
		return &Dense{
			In:  v.In,
			Out: v.Out,
			w:   cloneShardParam(v.w, canonical),
			b:   cloneShardParam(v.b, canonical),
		}
	case *BatchNorm:
		// Running stats are shared read-only: the replica defers its
		// updates (ghost batch norm) and its training path (≥2 rows) never
		// reads them, so only the canonical layer touches them — outside
		// the parallel sections, during FoldBatchStats.
		return &BatchNorm{
			Dim:         v.Dim,
			Momentum:    v.Momentum,
			Eps:         v.Eps,
			gamma:       cloneShardParam(v.gamma, canonical),
			beta:        cloneShardParam(v.beta, canonical),
			runningMean: v.runningMean,
			runningVar:  v.runningVar,
			mean:        make([]float64, v.Dim),
			vari:        make([]float64, v.Dim),
			std:         make([]float64, v.Dim),
			sumG:        make([]float64, v.Dim),
			sumGX:       make([]float64, v.Dim),
			coef:        make([]float64, v.Dim),
			deferStats:  true,
		}
	case *activation:
		return v.clone()
	case *Dropout:
		// Fresh rng so the shard's mask stream is reseedable per step —
		// the canonical rng's draw sequence must not be disturbed. A
		// splitmix source keeps the per-batch reseed O(1).
		return &Dropout{P: v.P, rng: NewShardRand(0)}
	case *GradReverse:
		return &GradReverse{Lambda: v.Lambda}
	default:
		panic(fmt.Sprintf("nn: ShardedNet cannot replicate layer type %T", l))
	}
}

// mixSeed derives a decorrelated seed from (base, i) with a splitmix64
// finalizer — the same construction core uses for per-sample seeds.
func mixSeed(base int64, i int) int64 {
	z := uint64(base) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// splitMix64Source is a rand.Source64 over the splitmix64 generator. Unlike
// the standard library's default source — whose Seed regenerates a
// 607-element feedback register, far too slow for per-(step, phase, shard)
// reseeding — seeding it is a single store.
type splitMix64Source struct{ state uint64 }

func (s *splitMix64Source) Seed(seed int64) { s.state = uint64(seed) }

func (s *splitMix64Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitMix64Source) Int63() int64 { return int64(s.Uint64() >> 1) }

// NewShardRand returns a *rand.Rand with O(1) reseeding, for shard-local
// random streams (dropout masks, generator noise) that are reseeded per
// (step, phase, shard). The draw sequence differs from rand.NewSource's, so
// it must only feed streams that are part of a new reproducibility key —
// never an existing seeded path.
func NewShardRand(seed int64) *rand.Rand {
	return rand.New(&splitMix64Source{state: uint64(seed)})
}
