package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
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
			if math.Float64bits(got[j]) != math.Float64bits(want[i][j]) {
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
	for i := range rows {
		solo, err := ad.AdaptBatch(rows[i:i+1], seeds[i:i+1], &rowScr)
		if err != nil {
			t.Fatal(err)
		}
		single, batched := solo.Row(0), out.Row(i)
		if len(single) != len(batched) {
			t.Fatalf("row %d width %d vs %d", i, len(single), len(batched))
		}
		for j := range single {
			if math.Float64bits(single[j]) != math.Float64bits(batched[j]) {
				t.Fatalf("row %d diverges at col %d: solo %v vs batched %v",
					i, j, single[j], batched[j])
			}
		}
	}

	// Different seeds must actually change the draw (the noise is live).
	other, err := ad.AdaptBatch(rows[:1], []int64{SampleSeed(requestSeed+1, 0)}, &rowScr)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for j, v := range other.Row(0) {
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
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
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
			if math.Float64bits(out.Row(i)[j]) != math.Float64bits(want[i][j]) {
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

// TestReconstructTMatchesEvalForward pins every reconstructor's output
// bits to digests of its network's eval-mode ForwardT on [inv | z],
// recorded before nn.Infer became the only eval forward. z is the pinned
// fixedZ (all-zero seeds, the offline rows helper behind TransformTarget)
// or, for the GANs, each nonzero seed's own Gaussian draw (ReconstructT
// with SampleSeed(17, i)); the autoencoder has no noise block, and the VAE
// and autoencoder ignore seeds, so their two digests agree. Each kind fits
// once; both paths are checked at batch sizes that exercise the row-blocked
// inference kernel's remainder rows, at every kernel width the host has.
func TestReconstructTMatchesEvalForward(t *testing.T) {
	rows := []int{1, 2, 7, 32}
	golden := map[ReconKind]struct{ zero, sampled []uint64 }{
		ReconGAN: {
			[]uint64{0xf979a46c58f284f4, 0x6e9354f89b5491d3, 0xfcb4eef2908c1423, 0x421bef3fbf1f8262},
			[]uint64{0xca72ad89b04dae34, 0x0e21415204ac3946, 0xf95cf27179f8698d, 0xcf1167b645195d42},
		},
		ReconGANNoCond: {
			[]uint64{0xe4ccdab0bc1f08d2, 0x24d6e394b595768f, 0xd55c5175e6506ab6, 0xa4b774ea38d72da3},
			[]uint64{0xd5571b5cfa86b3e9, 0x8b42cd4b60cd861a, 0x6aa952713e9f8af6, 0x5285d37f53a1b13e},
		},
		ReconVAE: {
			[]uint64{0x4837799abee2e34e, 0xdc71c7ee3e0a4f35, 0xc5eb2670b5a143bd, 0x0bfe7c1bf53a5135},
			[]uint64{0x4837799abee2e34e, 0xdc71c7ee3e0a4f35, 0xc5eb2670b5a143bd, 0x0bfe7c1bf53a5135},
		},
		ReconVanillaAE: {
			[]uint64{0xf234fe532cde45bc, 0x3e94f4439e41a689, 0xd75ab2cdb1272f60, 0xb73731f266a4bf27},
			[]uint64{0xf234fe532cde45bc, 0x3e94f4439e41a689, 0xd75ab2cdb1272f60, 0xb73731f266a4bf27},
		},
	}
	widths := nn.KernelWidths()
	defer nn.SetKernelWidth(nn.SetKernelWidth(widths[0]))
	for _, kind := range reconKinds {
		t.Run(kind.String(), func(t *testing.T) {
			nn.SetKernelWidth(widths[0])
			ad, raw := fitServeAdapter(t, kind)
			inv := scaledInv(t, ad, raw)
			r := ad.recon
			want := golden[kind]
			for _, width := range widths {
				nn.SetKernelWidth(width)
				var scr AdaptScratch
				var x nn.Tensor
				for k, n := range rows {
					got, err := reconstructRows(r, inv[:n])
					if err != nil {
						t.Fatal(err)
					}
					var flat []float64
					for _, row := range got {
						flat = append(flat, row...)
					}
					if d := bitsDigest(flat); d != want.zero[k] {
						t.Errorf("%s rows=%d: rows helper digest %016x, recorded %016x", width, n, d, want.zero[k])
					}
					seeds := make([]int64, n)
					for i := range seeds {
						seeds[i] = SampleSeed(17, i)
					}
					out, err := r.ReconstructT(x.SetFromRows(inv[:n]), seeds, &scr)
					if err != nil {
						t.Fatal(err)
					}
					if d := bitsDigest(out.Data()); d != want.sampled[k] {
						t.Errorf("%s rows=%d: ReconstructT digest %016x, recorded %016x", width, n, d, want.sampled[k])
					}
				}
			}
			logWidths(t, widths)
		})
	}
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

// TestReconstructRejectsRaggedRows checks that the offline row paths
// validate every row's width. Checking only the first row let a long row
// be truncated and a short one zero-padded without an error.
func TestReconstructRejectsRaggedRows(t *testing.T) {
	ad, rows := fitServeAdapter(t, ReconGAN)
	inv := scaledInv(t, ad, rows[:3])
	g := ad.recon.(*CGAN)
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
