package core

import (
	"math"
	"math/rand"
	"testing"

	"netdrift/internal/nn"
)

func TestSampleSeed(t *testing.T) {
	// Zero request seed pins every row to the fixed prior draw.
	for _, i := range []int{0, 1, 7, 1000} {
		if got := SampleSeed(0, i); got != 0 {
			t.Errorf("SampleSeed(0, %d) = %d, want 0", i, got)
		}
	}
	// Nonzero seeds decorrelate across rows and never collapse onto the
	// pinned-noise sentinel.
	seen := map[int64]bool{}
	for i := 0; i < 64; i++ {
		s := SampleSeed(42, i)
		if s == 0 {
			t.Fatalf("SampleSeed(42, %d) = 0, reserved for pinned noise", i)
		}
		if seen[s] {
			t.Fatalf("SampleSeed(42, %d) = %d collides with an earlier row", i, s)
		}
		seen[s] = true
	}
	// Row seeds are a pure function of (requestSeed, i).
	if SampleSeed(42, 3) != SampleSeed(42, 3) {
		t.Error("SampleSeed not deterministic")
	}
	if SampleSeed(42, 3) == SampleSeed(43, 3) {
		t.Error("different request seeds should give different row seeds")
	}
}

// reconKinds lists every reconstruction strategy.
var reconKinds = []ReconKind{ReconGAN, ReconGANNoCond, ReconVAE, ReconVanillaAE}

// fitServeAdapter returns a fitted FSRecon adapter with the given
// reconstructor and raw target rows to serve.
func fitServeAdapter(t *testing.T, kind ReconKind) (*Adapter, [][]float64) {
	t.Helper()
	src := driftToy(800, false, 8)
	tgtSupport := driftToy(20, true, 9)
	ad := NewAdapter(AdapterConfig{
		Mode:  ModeFSRecon,
		Recon: kind,
		GAN:   GANConfig{Epochs: 10},
		VAE:   VAEConfig{Epochs: 10},
		Seed:  11,
	})
	if err := ad.Fit(src, tgtSupport); err != nil {
		t.Fatal(err)
	}
	return ad, driftToy(64, true, 10).X
}

func TestAdaptBatchMatchesTransformTarget(t *testing.T) {
	// All-zero seeds select the pinned prior-mode noise, so the serving
	// path must reproduce the offline TransformTarget bit for bit.
	ad, rows := fitServeAdapter(t, ReconGAN)
	want, err := ad.TransformTarget(rows)
	if err != nil {
		t.Fatal(err)
	}
	var scr AdaptScratch
	seeds := make([]int64, len(rows))
	out, err := ad.AdaptBatch(rows, seeds, &scr)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != len(want) || out.Cols() != len(want[0]) {
		t.Fatalf("AdaptBatch shape %dx%d, want %dx%d", out.Rows(), out.Cols(), len(want), len(want[0]))
	}
	for i := range want {
		got := out.Row(i)
		for j := range want[i] {
			if got[j] != want[i][j] {
				t.Fatalf("AdaptBatch differs from TransformTarget at [%d][%d]: %v vs %v",
					i, j, got[j], want[i][j])
			}
		}
	}
}

func TestAdaptBatchMatchesPerSampleAdapt(t *testing.T) {
	// The determinism contract: a coalesced micro-batch is bit-identical
	// to adapting each row alone with the same derived seeds, regardless
	// of batch composition.
	ad, rows := fitServeAdapter(t, ReconGAN)
	const requestSeed = 77
	seeds := make([]int64, len(rows))
	for i := range seeds {
		seeds[i] = SampleSeed(requestSeed, i)
	}
	var batchScr AdaptScratch
	out, err := ad.AdaptBatch(rows, seeds, &batchScr)
	if err != nil {
		t.Fatal(err)
	}
	var rowScr AdaptScratch
	for i, row := range rows {
		single, err := ad.Adapt(row, seeds[i], &rowScr)
		if err != nil {
			t.Fatal(err)
		}
		batched := out.Row(i)
		if len(single) != len(batched) {
			t.Fatalf("row %d width %d vs %d", i, len(single), len(batched))
		}
		for j := range single {
			if single[j] != batched[j] {
				t.Fatalf("row %d diverges at col %d: solo %v vs batched %v",
					i, j, single[j], batched[j])
			}
		}
	}

	// Different seeds must actually change the draw (the noise is live).
	other, err := ad.Adapt(rows[0], SampleSeed(requestSeed+1, 0), &rowScr)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for j, v := range other {
		if v != out.Row(0)[j] {
			same = false
			break
		}
	}
	if same {
		t.Error("changing the seed did not change the adapted row")
	}
}

func TestAdaptBatchSubBatchInvariance(t *testing.T) {
	// Splitting one request across two micro-batches must not change any
	// row: noise depends on the row's seed, never on batch composition.
	ad, rows := fitServeAdapter(t, ReconGAN)
	seeds := make([]int64, len(rows))
	for i := range seeds {
		seeds[i] = SampleSeed(123, i)
	}
	var scr AdaptScratch
	whole, err := ad.AdaptBatch(rows, seeds, &scr)
	if err != nil {
		t.Fatal(err)
	}
	wholeCopy := make([][]float64, whole.Rows())
	for i := range wholeCopy {
		wholeCopy[i] = append([]float64(nil), whole.Row(i)...)
	}
	cut := len(rows) / 3
	var scr2 AdaptScratch
	for _, span := range [][2]int{{0, cut}, {cut, len(rows)}} {
		part, err := ad.AdaptBatch(rows[span[0]:span[1]], seeds[span[0]:span[1]], &scr2)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < part.Rows(); i++ {
			got := part.Row(i)
			want := wholeCopy[span[0]+i]
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("split batch diverges at row %d col %d", span[0]+i, j)
				}
			}
		}
	}
}

func TestAdaptBatchFSMode(t *testing.T) {
	src := driftToy(600, false, 12)
	tgtSupport := driftToy(20, true, 13)
	ad := NewAdapter(AdapterConfig{Mode: ModeFS, Seed: 14})
	if err := ad.Fit(src, tgtSupport); err != nil {
		t.Fatal(err)
	}
	rows := src.X[:8]
	want, err := ad.TransformTarget(rows)
	if err != nil {
		t.Fatal(err)
	}
	var scr AdaptScratch
	out, err := ad.AdaptBatch(rows, make([]int64, len(rows)), &scr)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cols() != len(want[0]) {
		t.Fatalf("FS projection width %d, want %d", out.Cols(), len(want[0]))
	}
	for i := range want {
		for j := range want[i] {
			if out.Row(i)[j] != want[i][j] {
				t.Fatalf("FS projection differs at [%d][%d]", i, j)
			}
		}
	}
}

func TestAdaptBatchErrors(t *testing.T) {
	var scr AdaptScratch
	unfit := NewAdapter(AdapterConfig{})
	if _, err := unfit.AdaptBatch([][]float64{{1}}, []int64{0}, &scr); err != ErrNotFitted {
		t.Errorf("unfitted AdaptBatch err = %v, want ErrNotFitted", err)
	}
	ad, rows := fitServeAdapter(t, ReconGAN)
	if _, err := ad.AdaptBatch(rows[:2], make([]int64, 3), &scr); err == nil {
		t.Error("expected rows/seeds length mismatch error")
	}
	if _, err := ad.AdaptBatch([][]float64{{1, 2}}, []int64{0}, &scr); err == nil {
		t.Error("expected row width mismatch error")
	}
	out, err := ad.AdaptBatch(nil, nil, &scr)
	if err != nil || out.Rows() != 0 {
		t.Errorf("empty batch: out=%dx%d err=%v", out.Rows(), out.Cols(), err)
	}
}

func TestAdaptBatchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	for _, kind := range reconKinds {
		t.Run(kind.String(), func(t *testing.T) {
			ad, rows := fitServeAdapter(t, kind)
			seeds := make([]int64, len(rows))
			for i := range seeds {
				seeds[i] = SampleSeed(5, i)
			}
			var scr AdaptScratch
			if _, err := ad.AdaptBatch(rows, seeds, &scr); err != nil { // warm the arena
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(50, func() {
				if _, err := ad.AdaptBatch(rows, seeds, &scr); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("steady-state AdaptBatch allocates %.1f allocs/op, want 0", allocs)
			}
		})
	}
}

// scaledInv returns the scaled invariant block of raw rows.
func scaledInv(t *testing.T, ad *Adapter, rows [][]float64) [][]float64 {
	t.Helper()
	scaled, err := ad.sep.Scale(rows)
	if err != nil {
		t.Fatal(err)
	}
	inv, _, err := ad.sep.Split(scaled)
	if err != nil {
		t.Fatal(err)
	}
	return inv
}

// TestReconstructTMatchesEvalForward pins every reconstructor against an
// independent reference: its own network's eval-mode ForwardT on
// [inv | z]. z is the pinned fixedZ, or for the GANs a nonzero seed's own
// Gaussian draw; the autoencoder has no noise block, and the VAE and
// autoencoder ignore seeds. ReconstructT and the offline rows helper
// behind TransformTarget must both match bit for bit, at batch sizes that
// exercise the row-blocked inference kernel's remainder rows.
func TestReconstructTMatchesEvalForward(t *testing.T) {
	for _, kind := range reconKinds {
		t.Run(kind.String(), func(t *testing.T) {
			ad, rows := fitServeAdapter(t, kind)
			inv := scaledInv(t, ad, rows)
			r := ad.Reconstructor()
			var net *nn.Network
			var fixedZ []float64
			switch r := r.(type) {
			case *CGAN:
				net, fixedZ = r.gen, r.fixedZ
			case *VAE:
				net, fixedZ = r.decoder, r.fixedZ
			case *VanillaAE:
				net = r.net
			default:
				t.Fatalf("unexpected reconstructor %T", r)
			}
			_, seeded := r.(*CGAN)
			reference := func(inv [][]float64, seeds []int64) [][]float64 {
				in := make([][]float64, len(inv))
				for i, row := range inv {
					z := fixedZ
					if seeded && seeds[i] != 0 {
						rng := rand.New(rand.NewSource(seeds[i]))
						z = make([]float64, len(fixedZ))
						for j := range z {
							z[j] = rng.NormFloat64()
						}
					}
					in[i] = append(append([]float64(nil), row...), z...)
				}
				var x nn.Tensor
				return net.ForwardT(x.SetFromRows(in), false).ToRows()
			}
			sameBits := func(what string, got, want [][]float64) {
				t.Helper()
				if len(got) != len(want) {
					t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
				}
				for i := range want {
					if len(got[i]) != len(want[i]) {
						t.Fatalf("%s: row %d width %d, want %d", what, i, len(got[i]), len(want[i]))
					}
					for j := range want[i] {
						if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
							t.Fatalf("%s: [%d][%d] = %v, eval forward %v", what, i, j, got[i][j], want[i][j])
						}
					}
				}
			}
			var scr AdaptScratch
			var x nn.Tensor
			for _, n := range []int{1, 3, 4, 9, len(inv)} {
				seeds := make([]int64, n)
				got, err := reconstructRows(r, inv[:n])
				if err != nil {
					t.Fatal(err)
				}
				sameBits("rows helper", got, reference(inv[:n], seeds))
				for i := range seeds {
					seeds[i] = SampleSeed(17, i)
				}
				out, err := r.ReconstructT(x.SetFromRows(inv[:n]), seeds, &scr)
				if err != nil {
					t.Fatal(err)
				}
				sameBits("ReconstructT", out.ToRows(), reference(inv[:n], seeds))
			}
		})
	}
}

// TestReconstructRejectsRaggedRows checks that the offline row paths
// validate every row's width. Checking only the first row let a long row
// be truncated and a short one zero-padded without an error.
func TestReconstructRejectsRaggedRows(t *testing.T) {
	ad, rows := fitServeAdapter(t, ReconGAN)
	inv := scaledInv(t, ad, rows[:3])
	g := ad.Reconstructor().(*CGAN)
	long := append(append([]float64(nil), inv[1]...), 0.5)
	for _, bad := range [][]float64{long, inv[1][:len(inv[1])-1]} {
		ragged := [][]float64{inv[0], bad, inv[2]}
		if _, err := reconstructRows(g, ragged); err == nil {
			t.Errorf("reconstructRows accepted a row of width %d", len(bad))
		}
		if _, err := g.ReconstructMC(ragged, 2); err == nil {
			t.Errorf("ReconstructMC accepted a row of width %d", len(bad))
		}
	}
}
