package nn

import (
	"math"
	"math/rand"
	"testing"

	"netdrift/internal/par"
)

// shardTestNet builds a small net exercising every replicable layer type.
func shardTestNet(rng *rand.Rand) *Network {
	return NewNetwork(
		NewSkipConcat(NewNetwork(
			NewDense(6, 8, rng),
			NewBatchNorm(8),
			NewReLU(),
		)),
		NewDense(14, 4, rng),
		NewLeakyReLU(0.2),
		NewDropout(0.3, rng),
		NewDense(4, 1, rng),
		NewTanh(),
	)
}

// runShardStep runs one full sharded forward/backward over x with the given
// shard bounds and worker count, reduces, folds, and returns the canonical
// gradient bits.
func runShardStep(sn *ShardedNet, x *Tensor, bounds []int, workers int) [][]uint64 {
	shards := len(bounds) - 1
	views := make([]Tensor, shards)
	grads := make([]Tensor, shards)
	par.ForEach(workers, shards, func(s int) {
		sn.SeedDropouts(s, mixSeed(99, s))
		view := x.ViewRows(bounds[s], bounds[s+1], &views[s])
		out := sn.Net(s).ForwardT(view)
		g := grads[s].Reset(out.Rows(), out.Cols())
		for i := range g.data {
			g.data[i] = 0.01 * float64(i%17)
		}
		sn.Net(s).BackwardT(g)
	})
	sn.ReduceGrads(workers)
	sn.FoldBatchStats()
	var bits [][]uint64
	for _, p := range sn.params[0] {
		row := make([]uint64, len(p.Grad))
		for i, v := range p.Grad {
			row[i] = math.Float64bits(v)
		}
		bits = append(bits, row)
	}
	return bits
}

// TestShardedNetWorkerInvariance pins the tentpole property at the nn
// level: the merged gradient, and the canonical running statistics, are
// bit-identical for every worker count at a fixed shard count.
func TestShardedNetWorkerInvariance(t *testing.T) {
	const shards = 4
	x := NewTensor(16, 6)
	rng := rand.New(rand.NewSource(3))
	for i := range x.data {
		x.data[i] = rng.NormFloat64()
	}
	bounds := par.ShardBounds(nil, x.Rows(), shards, 2)

	var wantGrads [][]uint64
	var wantStats []float64
	for _, workers := range []int{1, 2, 3, 7} {
		net := shardTestNet(rand.New(rand.NewSource(11)))
		sn := NewSharded(net, shards)
		got := runShardStep(sn, x, bounds, workers)
		var stats []float64
		walkLayers(net, func(l Layer) {
			if bn, ok := l.(*BatchNorm); ok {
				stats = append(stats, bn.runningMean...)
				stats = append(stats, bn.runningVar...)
			}
		})
		if workers == 1 {
			wantGrads, wantStats = got, stats
			continue
		}
		for p := range wantGrads {
			for i := range wantGrads[p] {
				if got[p][i] != wantGrads[p][i] {
					t.Fatalf("workers=%d: param %d grad[%d] differs", workers, p, i)
				}
			}
		}
		for i := range wantStats {
			if math.Float64bits(stats[i]) != math.Float64bits(wantStats[i]) {
				t.Fatalf("workers=%d: running stat %d differs", workers, i)
			}
		}
	}
}

// TestShardedNetParamSharing checks the replica scheme: replica 0 holds the
// canonical *Param objects; higher replicas share Data but own their Grad.
func TestShardedNetParamSharing(t *testing.T) {
	net := shardTestNet(rand.New(rand.NewSource(5)))
	sn := NewSharded(net, 3)
	canon := net.Params()
	p0 := sn.params[0]
	if len(p0) != len(canon) {
		t.Fatalf("replica 0 has %d params, canonical %d", len(p0), len(canon))
	}
	for i := range canon {
		if p0[i] != canon[i] {
			t.Fatalf("replica 0 param %d is not the canonical object", i)
		}
	}
	for r := 1; r < 3; r++ {
		pr := sn.params[r]
		for i := range canon {
			if pr[i] == canon[i] {
				t.Fatalf("replica %d param %d aliases the canonical object", r, i)
			}
			if &pr[i].Data[0] != &canon[i].Data[0] {
				t.Fatalf("replica %d param %d does not share Data", r, i)
			}
			if &pr[i].Grad[0] == &canon[i].Grad[0] {
				t.Fatalf("replica %d param %d shares the canonical Grad arena", r, i)
			}
		}
	}
}

// TestShardedNetReduceZeroesSources checks the arena invariant ReduceGrads
// maintains: after a reduce, every non-canonical arena is all zero.
func TestShardedNetReduceZeroesSources(t *testing.T) {
	net := shardTestNet(rand.New(rand.NewSource(7)))
	sn := NewSharded(net, 4)
	for r := 0; r < 4; r++ {
		for _, p := range sn.params[r] {
			for i := range p.Grad {
				p.Grad[i] = float64(r + 1)
			}
		}
	}
	sn.ReduceGrads(2)
	for _, p := range sn.params[0] {
		for i, v := range p.Grad {
			if v != 1+2+3+4 {
				t.Fatalf("canonical grad[%d] = %v, want 10", i, v)
			}
		}
	}
	for r := 1; r < 4; r++ {
		for _, p := range sn.params[r] {
			for i, v := range p.Grad {
				if v != 0 {
					t.Fatalf("replica %d grad[%d] = %v after reduce, want 0", r, i, v)
				}
			}
		}
	}
}

// TestShardedNetReduceAllocs pins the steady-state allocation budget of the
// merge: sequential reduction allocates nothing.
func TestShardedNetReduceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	net := shardTestNet(rand.New(rand.NewSource(9)))
	sn := NewSharded(net, 4)
	if avg := testing.AllocsPerRun(50, func() { sn.ReduceGrads(1) }); avg > 0 {
		t.Errorf("sequential ReduceGrads allocates %.2f/op, want 0", avg)
	}
}

// TestShardedNetUnsupportedLayerPanics pins the explicit failure mode for
// custom layers.
func TestShardedNetUnsupportedLayerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSharded accepted an unreplicable layer")
		}
	}()
	NewSharded(&fakeLayer{}, 2)
}

type fakeLayer struct{}

func (f *fakeLayer) ForwardT(x *Tensor) *Tensor                { return x }
func (f *fakeLayer) BackwardT(g *Tensor) *Tensor               { return g }
func (f *fakeLayer) InferT(x *Tensor, _ *InferScratch) *Tensor { return x }
func (f *fakeLayer) Params() []*Param                          { return nil }
