package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

	"netdrift/internal/nn"
	"netdrift/internal/obs"
	"netdrift/internal/par"
)

// epochAllocBudget bounds the heap objects one steady-state training epoch
// may allocate: slack for runtime noise only, below the fixture's three
// minibatches per epoch, so a single per-batch allocation anywhere in the
// shard bodies, the fold or the optimizer fails the gate.
const epochAllocBudget = 2

// mallocsDuring counts heap allocations performed by f.
func mallocsDuring(f func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

// shardTrainData builds a small synthetic source domain: invariant features
// drive the variant ones through a noisy linear map, scaled to [-1, 1].
func shardTrainData(n, invDim, varDim int, seed int64) (inv, vr [][]float64, y []int) {
	rng := rand.New(rand.NewSource(seed))
	inv = make([][]float64, n)
	vr = make([][]float64, n)
	y = make([]int, n)
	w := make([][]float64, invDim)
	for i := range w {
		w[i] = make([]float64, varDim)
		for j := range w[i] {
			w[i][j] = rng.NormFloat64()
		}
	}
	for i := 0; i < n; i++ {
		inv[i] = make([]float64, invDim)
		vr[i] = make([]float64, varDim)
		for k := range inv[i] {
			inv[i][k] = 2*rng.Float64() - 1
		}
		for j := 0; j < varDim; j++ {
			var s float64
			for k := 0; k < invDim; k++ {
				s += inv[i][k] * w[k][j]
			}
			vr[i][j] = math.Tanh(s + 0.1*rng.NormFloat64())
		}
		y[i] = i % 2
	}
	return inv, vr, y
}

// epochRecorder captures the TrainHook event stream for cross-worker
// comparison. The stream is part of the determinism contract: identical at
// every worker count.
type epochRecorder struct {
	events []string
}

func (r *epochRecorder) Epoch(e obs.TrainEpoch) {
	r.events = append(r.events, fmt.Sprintf("epoch %s %d %x %x %v",
		e.Model, e.Epoch, math.Float64bits(e.GenLoss), math.Float64bits(e.DiscLoss), e.Adversarial))
}

func (r *epochRecorder) Done(d obs.TrainDone) {
	r.events = append(r.events, fmt.Sprintf("done %s %d %d", d.Model, d.Epochs, d.ConvergedEpoch))
}

// testRecon builds the fixture's reconstructor of the given kind: a small
// network trained for epochs epochs at the given shard and worker counts.
func testRecon(model string, epochs, shards, workers int, o *obs.Observer) Reconstructor {
	switch model {
	case "GAN", "NoCond":
		return NewCGAN(GANConfig{
			Epochs: epochs, BatchSize: 32, Seed: 7, Hidden: 16, NoiseDim: 4,
			Conditional: model == "GAN",
			Shards:      shards, Workers: workers, Obs: o,
		})
	case "VAE":
		return NewVAE(VAEConfig{
			Epochs: epochs, BatchSize: 32, Seed: 7, Hidden: 16, LatentDim: 4,
			Shards: shards, Workers: workers, Obs: o,
		})
	case "VanillaAE":
		return NewVanillaAE(VAEConfig{
			Epochs: epochs, BatchSize: 32, Seed: 7, Hidden: 16,
			Shards: shards, Workers: workers, Obs: o,
		})
	}
	panic(fmt.Sprintf("unknown model %q", model))
}

// reconSnapshots returns the snapshots of r's trained networks.
func reconSnapshots(r Reconstructor) []*nn.Snapshot {
	switch r := r.(type) {
	case *CGAN:
		return []*nn.Snapshot{nn.TakeSnapshot(r.gen), nn.TakeSnapshot(r.disc)}
	case *VAE:
		return []*nn.Snapshot{nn.TakeSnapshot(r.encoder), nn.TakeSnapshot(r.decoder)}
	case *VanillaAE:
		return []*nn.Snapshot{nn.TakeSnapshot(r.net)}
	}
	panic(fmt.Sprintf("unknown reconstructor %T", r))
}

// fitModel trains one reconstructor at the given shard and worker counts
// and returns the snapshots of its trained networks plus the hook event
// stream.
func fitModel(t *testing.T, model string, shards, workers int) ([]*nn.Snapshot, []string) {
	t.Helper()
	inv, vr, y := shardTrainData(96, 4, 3, 11)
	rec := &epochRecorder{}
	o := obs.New()
	o.Train = rec
	r := testRecon(model, 3, shards, workers, o)
	if err := r.Fit(inv, vr, y, 2); err != nil {
		t.Fatalf("%s fit: %v", model, err)
	}
	return reconSnapshots(r), rec.events
}

func snapshotsEqual(t *testing.T, model string, workers int, want, got []*nn.Snapshot) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s workers=%d: %d nets, want %d", model, workers, len(got), len(want))
	}
	for ni := range want {
		w, g := want[ni], got[ni]
		if len(w.Params) != len(g.Params) {
			t.Fatalf("%s workers=%d net %d: param count %d, want %d", model, workers, ni, len(g.Params), len(w.Params))
		}
		for p := range w.Params {
			for i := range w.Params[p] {
				if math.Float64bits(w.Params[p][i]) != math.Float64bits(g.Params[p][i]) {
					t.Fatalf("%s workers=%d net %d param %d[%d]: %x, want %x (bitwise)",
						model, workers, ni, p, i,
						math.Float64bits(g.Params[p][i]), math.Float64bits(w.Params[p][i]))
				}
			}
		}
		if len(w.Extra) != len(g.Extra) {
			t.Fatalf("%s workers=%d net %d: extra count mismatch", model, workers, ni)
		}
		for e := range w.Extra {
			for s := range w.Extra[e] {
				for i := range w.Extra[e][s] {
					if math.Float64bits(w.Extra[e][s][i]) != math.Float64bits(g.Extra[e][s][i]) {
						t.Fatalf("%s workers=%d net %d extra %d/%d[%d]: running stats differ bitwise",
							model, workers, ni, e, s, i)
					}
				}
			}
		}
	}
}

// TestShardedTrainingWorkerInvariance is the cross-worker determinism
// matrix (DESIGN.md §5f): at a fixed shard count, the trained weights,
// batch-norm running statistics, and the obs hook event stream must be
// byte-identical for every worker count. One shard runs through the same
// harness as four.
func TestShardedTrainingWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("trains 4 models x 2 shard counts x 4 worker counts")
	}
	for _, model := range []string{"GAN", "NoCond", "VAE", "VanillaAE"} {
		model := model
		t.Run(model, func(t *testing.T) {
			for _, shards := range []int{1, 4} {
				refSnaps, refEvents := fitModel(t, model, shards, 1)
				for _, workers := range []int{2, 3, 7} {
					snaps, events := fitModel(t, model, shards, workers)
					snapshotsEqual(t, fmt.Sprintf("%s shards=%d", model, shards), workers, refSnaps, snaps)
					if len(events) != len(refEvents) {
						t.Fatalf("shards=%d workers=%d: %d hook events, want %d", shards, workers, len(events), len(refEvents))
					}
					for i := range refEvents {
						if events[i] != refEvents[i] {
							t.Fatalf("shards=%d workers=%d hook event %d:\n got %s\nwant %s", shards, workers, i, events[i], refEvents[i])
						}
					}
				}
			}
		})
	}
}

// TestShardedTrainingShardCountIsKey documents that the shard count — unlike
// the worker count — IS part of the reproducibility key: different shard
// counts are different (equally valid) trainings.
func TestShardedTrainingShardCountIsKey(t *testing.T) {
	a, _ := fitModel(t, "VanillaAE", 2, 1)
	b, _ := fitModel(t, "VanillaAE", 4, 1)
	for p := range a[0].Params {
		for i := range a[0].Params[p] {
			if math.Float64bits(a[0].Params[p][i]) != math.Float64bits(b[0].Params[p][i]) {
				return // diverged, as expected
			}
		}
	}
	t.Fatal("shards=2 and shards=4 produced identical weights; shard count should alter the training")
}

// TestShardedTrainingRace hammers the shard workers under the race detector
// (a no-op without -race). Small nets, many steps, maximum contention.
func TestShardedTrainingRace(t *testing.T) {
	inv, vr, y := shardTrainData(64, 3, 2, 5)
	g := NewCGAN(GANConfig{
		Epochs: 2, BatchSize: 16, Seed: 3, Hidden: 8, NoiseDim: 2,
		Conditional: true, Shards: 8, Workers: 8, Obs: obs.New(),
	})
	if err := g.Fit(inv, vr, y, 2); err != nil {
		t.Fatalf("gan fit: %v", err)
	}
	v := NewVAE(VAEConfig{
		Epochs: 2, BatchSize: 16, Seed: 3, Hidden: 8, LatentDim: 2,
		Shards: 8, Workers: 8, Obs: obs.New(),
	})
	if err := v.Fit(inv, vr, nil, 0); err != nil {
		t.Fatalf("vae fit: %v", err)
	}
	a := NewVanillaAE(VAEConfig{
		Epochs: 2, BatchSize: 16, Seed: 3, Hidden: 8,
		Shards: 8, Workers: 8, Obs: obs.New(),
	})
	if err := a.Fit(inv, vr, nil, 0); err != nil {
		t.Fatalf("ae fit: %v", err)
	}
}

// TestShardedEpochAllocs pins the per-epoch steady-state allocation budget of
// the training harness for every reconstructor kind, at one shard (the
// default every unsharded Fit runs) and at four: after the first epoch warms
// every arena, additional epochs must not allocate per batch (DESIGN.md
// §5c). Measured at Workers=1 — goroutine startup allocates by design on
// parallel runs.
func TestShardedEpochAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under -race")
	}
	inv, vr, y := shardTrainData(96, 4, 3, 11)
	for _, model := range []string{"GAN", "NoCond", "VAE", "VanillaAE"} {
		for _, shards := range []int{1, 4} {
			fit := func(epochs int) {
				if err := testRecon(model, epochs, shards, 1, nil).Fit(inv, vr, y, 2); err != nil {
					t.Fatalf("%s fit: %v", model, err)
				}
			}
			fit(1) // warm any lazy runtime state
			base := mallocsDuring(func() { fit(2) })
			more := mallocsDuring(func() { fit(10) })
			perEpoch := float64(int64(more)-int64(base)) / 8
			if perEpoch > epochAllocBudget {
				t.Errorf("%s shards=%d: epoch allocates %.1f objects in steady state, budget %d",
					model, shards, perEpoch, epochAllocBudget)
			}
		}
	}
}

// TestGANGradArenasZeroBetweenSteps pins what lets the generator update run
// the discriminator backward frozen instead of zeroing its gradients after:
// every step leaves every gradient arena of every replica zero (ReduceGrads
// zeroes the replicas', the optimizer step the canonical ones), and the
// frozen backward writes none. A fit ends on a generator update, so any
// discriminator gradient it wrote would still be there.
func TestGANGradArenasZeroBetweenSteps(t *testing.T) {
	inv, vr, y := shardTrainData(96, 4, 3, 11)
	for _, model := range []string{"GAN", "NoCond"} {
		for _, shards := range []int{1, 4} {
			g := testRecon(model, 2, shards, 1, nil).(*CGAN)
			if err := g.Fit(inv, vr, y, 2); err != nil {
				t.Fatalf("%s fit: %v", model, err)
			}
			for _, sn := range []*nn.ShardedNet{g.sdisc, g.sgen} {
				for r := 0; r < shards; r++ {
					for _, p := range sn.Net(r).Params() {
						for _, v := range p.Grad {
							if v != 0 {
								t.Fatalf("%s shards=%d: replica %d gradient of %s is not zero", model, shards, r, p.Name)
							}
						}
					}
				}
			}
		}
	}
}

const trainFingerprintPath = "testdata/train_fingerprint.golden"

// snapshotsHash hashes the bits of every parameter and running statistic.
func snapshotsHash(snaps []*nn.Snapshot) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, s := range snaps {
		for _, p := range s.Params {
			for _, v := range p {
				put(v)
			}
		}
		for _, e := range s.Extra {
			for _, st := range e {
				for _, v := range st {
					put(v)
				}
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// trainFingerprint trains every reconstructor kind on the fitModel fixture
// and renders one line per (kind, shard count): the weights and running
// statistics hash, plus the hook event stream hash at Shards 0.
func trainFingerprint(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, model := range []string{"GAN", "NoCond", "VAE", "VanillaAE"} {
		snaps, events := fitModel(t, model, 0, 1)
		ev := sha256.Sum256([]byte(strings.Join(events, "\n")))
		lines = append(lines, fmt.Sprintf("%s shards=0 state=%s events=%x", model, snapshotsHash(snaps), ev))
		snaps, _ = fitModel(t, model, 4, 1)
		lines = append(lines, fmt.Sprintf("%s shards=4 state=%s", model, snapshotsHash(snaps)))
	}
	return lines
}

// TestTrainingFingerprintGolden pins the trained weights, batch-norm running
// statistics and (at Shards 0) the obs hook event stream of all four
// reconstructor kinds to hashes recorded in testdata, at every kernel width
// the host has. A refactor of the trainers or a kernel must not move a
// single bit.
func TestTrainingFingerprintGolden(t *testing.T) {
	blob, err := os.ReadFile(trainFingerprintPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(blob)), "\n")
	widths := nn.KernelWidths()
	defer nn.SetKernelWidth(nn.SetKernelWidth(widths[0]))
	for _, width := range widths {
		nn.SetKernelWidth(width)
		got := trainFingerprint(t)
		if len(got) != len(want) {
			t.Fatalf("%s: %d fingerprint lines, golden has %d:\n%s", width, len(got), len(want), strings.Join(got, "\n"))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s line %d:\n got %s\nwant %s", width, i, got[i], want[i])
			}
		}
	}
	logWidths(t, widths)
}

// TestGANEpochKernelWidthsBitIdentical trains one conditional GAN per
// hidden width on the Go twins with one worker, then again at every kernel
// width the host has with four workers, and requires every trained weight
// and running statistic to match bit for bit: the end-to-end check of the
// vector kernels against their twins and of the shard reduction against
// the worker count at once. The shape reaches what the fingerprint
// fixture's Hidden 16 cannot: Hidden 64 fills the AVX-512 64-column
// skipGemm stripe exactly and Hidden 100 adds its 32+4-column remainder,
// and 64-row batches over 8 shards give 8-row shards, one 6-row vdotRows
// block and a 2-row tail each.
func TestGANEpochKernelWidthsBitIdentical(t *testing.T) {
	inv, vr, y := shardTrainData(384, 12, 6, 4246)
	widths := nn.KernelWidths()
	defer nn.SetKernelWidth(nn.SetKernelWidth(widths[0]))
	train := func(hidden int, width string, workers int) []*nn.Snapshot {
		t.Helper()
		nn.SetKernelWidth(width)
		g := NewCGAN(GANConfig{
			Epochs: 2, BatchSize: 64, Hidden: hidden, NoiseDim: 8,
			Seed: 102, Conditional: true, Shards: 8, Workers: workers,
		})
		if err := g.Fit(inv, vr, y, 2); err != nil {
			t.Fatalf("hidden=%d %s workers=%d: fit: %v", hidden, width, workers, err)
		}
		t.Logf("hidden=%d trained at kernel width %s, workers %d", hidden, width, workers)
		return reconSnapshots(g)
	}
	for _, hidden := range []int{64, 100} {
		want := train(hidden, "go", 1)
		for _, width := range widths {
			got := train(hidden, width, 4)
			snapshotsEqual(t, fmt.Sprintf("hidden=%d %s", hidden, width), 4, want, got)
		}
	}
	logWidths(t, widths)
}

// logWidths logs the kernel widths a test ran and, when the host has no
// AVX-512, that the 512-bit kernels did not run.
func logWidths(t *testing.T, ran []string) {
	t.Helper()
	t.Logf("kernel widths run: %v (host widest: %s)", ran, nn.KernelWidths()[0])
	if nn.KernelWidths()[0] != "avx512" {
		t.Logf("AVX-512 absent on this host: the 512-bit kernels did not run")
	}
}

// TestPhaseLossFold pins the harness's per-term loss fold: each term's
// shard partials are summed over every shard that ran, divided by the
// full batch's rows × the term's per-row normalizer, and weighted into the
// phase loss; a shard's error stops the phase before the optimizer steps.
func TestPhaseLossFold(t *testing.T) {
	tr := &trainer{name: "fold", shards: 4, workers: 1, views: make([]shardBatch, 4), n: 10}
	tr.bInv.Reset(tr.n, 1)
	tr.bVar.Reset(tr.n, 1)
	tr.bounds = par.ShardBounds(nil, tr.n, tr.shards, shardMinRows)
	failAt := -1
	body := func(_ *trainer, s int, b *shardBatch, loss []float64) error {
		if s == failAt {
			return fmt.Errorf("shard %d failed", s)
		}
		loss[0] = float64(b.inv.Rows())  // sums to the batch's 10 rows
		loss[1] = float64(100 * (s + 1)) // 100+200+300+400
		return nil
	}
	p := tr.phase(body, nn.NewAdam(1e-3, 0), nil, nil, lossTerm{1, 1}, lossTerm{5, 0.5})
	got, err := tr.run(p)
	if err != nil {
		t.Fatal(err)
	}
	if want := 10.0/10 + 0.5*(1000.0/50); got != want {
		t.Fatalf("folded loss %v, want %v", got, want)
	}
	failAt = 2
	if _, err := tr.run(p); err == nil {
		t.Fatal("a failing shard did not fail the phase")
	}
}
