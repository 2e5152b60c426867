package nn

import (
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
		o := net.ForwardT(x, true)
		mseMean(o, target, &grad)
		net.BackwardT(&grad)
		opt.Step(params)
	}
	return net
}

// TestInferMatchesForwardEval pins the serving contract: Infer is
// bit-identical to eval-mode ForwardT for every batch size, including the
// degenerate single-row batch, at every kernel width the host has (the net
// trains at that width too).
func TestInferMatchesForwardEval(t *testing.T) {
	forEachWidth(t, true, func(width string) {
		const in, hidden, out = 13, 24, 7
		net := ganLikeNet(t, in, hidden, out)
		rng := rand.New(rand.NewSource(29))
		var scratch InferScratch
		for _, rows := range []int{1, 2, 7, 32} {
			x := NewTensor(rows, in)
			for i := range x.Data() {
				x.Data()[i] = rng.NormFloat64()
			}
			want := net.ForwardT(x, false).ToRows()
			got := Infer(net, x, &scratch)
			if got.Rows() != rows || got.Cols() != out {
				t.Fatalf("%s rows=%d: infer shape %dx%d, want %dx%d", width, rows, got.Rows(), got.Cols(), rows, out)
			}
			for i := 0; i < rows; i++ {
				for j, w := range want[i] {
					if g := got.At(i, j); g != w {
						t.Fatalf("%s rows=%d: infer[%d][%d] = %v, forward eval = %v", width, rows, i, j, g, w)
					}
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
						if got.At(i, j) != w {
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
