package nn

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// ganLikeNet builds the generator architecture served in production
// (SkipConcat trunk with Dense+BatchNorm+ReLU, dense head, tanh) and runs
// a few training steps so batch-norm running statistics are non-trivial.
func ganLikeNet(t *testing.T, in, hidden, out int) *Network {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	trunk := NewNetwork(
		NewDense(in, hidden, rng),
		NewBatchNorm(hidden),
		NewReLU(),
		NewDense(hidden, hidden, rng),
		NewBatchNorm(hidden),
		NewReLU(),
	)
	net := NewNetwork(
		NewSkipConcat(trunk),
		NewDense(hidden+in, out, rng),
		NewTanh(),
	)
	opt := NewAdam(1e-3, 1e-6)
	params := net.Params()
	x := NewTensor(16, in)
	target := NewTensor(16, out)
	var grad Tensor
	for step := 0; step < 5; step++ {
		for i := range x.Data() {
			x.Data()[i] = rng.NormFloat64()
		}
		for i := range target.Data() {
			target.Data()[i] = rng.NormFloat64()
		}
		o := net.ForwardT(x)
		mseMean(o, target, &grad)
		net.BackwardT(&grad)
		opt.Step(params)
	}
	return net
}

// tnetLikeNet builds TNet's architecture in miniature (feature gate,
// Dense, BatchNorm, ReLU, Dropout, dense head) and trains it a few softmax
// steps, so the gate weights and the running statistics move off their
// initial values and dropout has drawn its masks.
func tnetLikeNet(t *testing.T, in, hidden, out int) *Network {
	t.Helper()
	rng := rand.New(rand.NewSource(13))
	net := NewNetwork(
		NewFeatureGate(in, rng),
		NewDense(in, hidden, rng),
		NewBatchNorm(hidden),
		NewReLU(),
		NewDropout(0.1, rng),
		NewDense(hidden, out, rng),
	)
	opt := NewAdam(1e-3, 1e-6)
	params := net.Params()
	x := NewTensor(16, in)
	y := make([]int, 16)
	var grad Tensor
	for step := 0; step < 5; step++ {
		for i := range x.Data() {
			x.Data()[i] = rng.NormFloat64()
		}
		for i := range y {
			y[i] = rng.Intn(out)
		}
		if _, err := SoftmaxCET(net.ForwardT(x), y, &grad); err != nil {
			t.Fatal(err)
		}
		net.BackwardT(&grad)
		opt.Step(params)
	}
	return net
}

// bitsDigest is the FNV-64a hash of v's float64 bit patterns, each
// written little-endian.
func bitsDigest(v []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, f := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestInferEvalDigestGolden pins Infer's output bits for the generator
// architecture served in production and for TNet's, at batch sizes 1
// (batch norm's degenerate single row), 2, 7 and 32, at every kernel
// width the host has (the nets train at that width too). The digests were
// recorded from the layers' eval-mode ForwardT before Infer became the only
// eval forward, so they hold Infer to the arithmetic it replaced.
func TestInferEvalDigestGolden(t *testing.T) {
	rows := []int{1, 2, 7, 32}
	nets := []struct {
		name  string
		build func(*testing.T, int, int, int) *Network
		want  []uint64
	}{
		{"gan", ganLikeNet, []uint64{0xe3256fdafd27da7d, 0x0f2be31f3862589c, 0xdf1143ca043ddafe, 0x13f0fb79bc120c4e}},
		{"tnet", tnetLikeNet, []uint64{0xc05fe46e858bb220, 0x6abe524cd2f4e24c, 0x7e35760333395d53, 0x9cf87a7b2bfb72f6}},
	}
	forEachWidth(t, true, func(width string) {
		for _, c := range nets {
			const in, hidden, out = 13, 24, 7
			net := c.build(t, in, hidden, out)
			rng := rand.New(rand.NewSource(29))
			var scratch InferScratch
			for k, n := range rows {
				x := NewTensor(n, in)
				for i := range x.Data() {
					x.Data()[i] = rng.NormFloat64()
				}
				got := Infer(net, x, &scratch)
				if got.Rows() != n || got.Cols() != out {
					t.Fatalf("%s %s rows=%d: infer shape %dx%d, want %dx%d", width, c.name, n, got.Rows(), got.Cols(), n, out)
				}
				if d := bitsDigest(got.Data()); d != c.want[k] {
					t.Errorf("%s %s rows=%d: digest %016x, recorded %016x", width, c.name, n, d, c.want[k])
				}
			}
		}
	})
}

// TestInferDropoutGradReverseIdentity checks the identity layers pass the
// input tensor through untouched (no copy, no arena buffer burned).
func TestInferDropoutGradReverseIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := NewNetwork(NewDropout(0.5, rng), &GradReverse{Lambda: 1})
	x := NewTensor(3, 4)
	for i := range x.Data() {
		x.Data()[i] = rng.NormFloat64()
	}
	var s InferScratch
	if got := Infer(net, x, &s); got != x {
		t.Error("identity-only network should return the input tensor")
	}
	if len(s.bufs) != 0 {
		t.Errorf("identity layers burned %d arena buffers", len(s.bufs))
	}
}

// TestInferConcurrent runs many goroutines through one shared network,
// each with its own arena, and checks every result equals the sequential
// reference. Under -race this also proves Infer never writes the network.
func TestInferConcurrent(t *testing.T) {
	const in, hidden, out = 10, 16, 5
	net := ganLikeNet(t, in, hidden, out)
	rng := rand.New(rand.NewSource(41))
	x := NewTensor(8, in)
	for i := range x.Data() {
		x.Data()[i] = rng.NormFloat64()
	}
	var ref InferScratch
	want := Infer(net, x, &ref).ToRows()

	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s InferScratch
			for iter := 0; iter < 50; iter++ {
				got := Infer(net, x, &s)
				for i := range want {
					for j, w := range want[i] {
						if math.Float64bits(got.Row(i)[j]) != math.Float64bits(w) {
							select {
							case errs <- "concurrent infer diverged from sequential reference":
							default:
							}
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}

// TestInferSteadyStateAllocs is the serving-path allocation gate: after
// warm-up, a batch forward through the GAN-shaped network must not
// allocate at all.
func TestInferSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	const in, hidden, out = 13, 24, 7
	net := ganLikeNet(t, in, hidden, out)
	rng := rand.New(rand.NewSource(3))
	x := NewTensor(32, in)
	for i := range x.Data() {
		x.Data()[i] = rng.NormFloat64()
	}
	var s InferScratch
	step := func() { Infer(net, x, &s) }
	step() // grow the arena
	step()
	if avg := testing.AllocsPerRun(50, step); avg > 0 {
		t.Errorf("steady-state inference forward allocates %.2f/op, want 0", avg)
	}
}

// BenchmarkInferForward reports the inference-only batch forward cost;
// run with -benchmem to watch the zero-allocation budget.
func BenchmarkInferForward(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	trunk := NewNetwork(
		NewDense(64, 128, rng),
		NewBatchNorm(128),
		NewReLU(),
		NewDense(128, 128, rng),
		NewBatchNorm(128),
		NewReLU(),
	)
	net := NewNetwork(
		NewSkipConcat(trunk),
		NewDense(128+64, 48, rng),
		NewTanh(),
	)
	x := NewTensor(32, 64)
	for i := range x.Data() {
		x.Data()[i] = rng.NormFloat64()
	}
	var s InferScratch
	Infer(net, x, &s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Infer(net, x, &s)
	}
}
