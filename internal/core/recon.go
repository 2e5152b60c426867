package core

import (
	"fmt"
	"math/rand"
	"sync"

	"netdrift/internal/nn"
)

// Reconstructor learns, on source-domain data only, to reconstruct the
// domain-variant features from the domain-invariant features. At inference
// it maps a target sample's variant features back onto the source
// distribution (paper §V-C).
type Reconstructor interface {
	// Fit trains on scaled source rows: inv/vr are the invariant/variant
	// column groups, y the integer labels (used only by label-conditioned
	// discriminators), numClasses the label arity.
	Fit(inv, vr [][]float64, y []int, numClasses int) error
	// ReconstructT produces source-like variant features for each
	// invariant row in one inference-only pass over scr, with one noise
	// seed per row: seed 0 selects the pinned prior-mode draw (the paper's
	// M=1 inference), other seeds a reproducible Gaussian draw.
	// Reconstructors without a noise input ignore the seeds. It never
	// mutates the reconstructor, so concurrent calls are safe with one
	// scratch each. The returned tensor is scratch-owned and valid until
	// the scratch's next use.
	ReconstructT(inv *nn.Tensor, seeds []int64, scr *AdaptScratch) (*nn.Tensor, error)
	// Name identifies the reconstruction strategy for reports.
	Name() string
}

// ReconKind selects the reconstruction strategy (Table II ablation).
type ReconKind int

// Reconstruction strategies.
const (
	ReconGAN       ReconKind = iota + 1 // conditional GAN (FS+GAN, the paper's method)
	ReconGANNoCond                      // GAN without label conditioning (FS+NoCond)
	ReconVAE                            // conditional VAE ablation (FS+VAE)
	ReconVanillaAE                      // deterministic autoencoder ablation (FS+VanillaAE)
)

// String implements fmt.Stringer.
func (k ReconKind) String() string {
	switch k {
	case ReconGAN:
		return "GAN"
	case ReconGANNoCond:
		return "NoCond"
	case ReconVAE:
		return "VAE"
	case ReconVanillaAE:
		return "VanillaAE"
	default:
		return "ReconKind(?)"
	}
}

// noiseDim picks the generator noise size from the data dimensionality,
// matching the paper's choices (30 for the 442-feature 5GC dataset, 15 for
// the 116-feature 5GIPC dataset): small relative to the data dimension so
// that M=1 Monte-Carlo inference is stable (§V-C2).
func noiseDim(numFeatures int) int {
	n := numFeatures / 15
	if n < 4 {
		n = 4
	}
	if n > 48 {
		n = 48
	}
	return n
}

// hiddenDim picks the generator/discriminator width from the data
// dimensionality (256 for 5GC-scale, 128 for 5GIPC-scale in the paper).
func hiddenDim(numFeatures int) int {
	if numFeatures > 200 {
		return 256
	}
	return 128
}

// gaussianNoiseInto fills dst (reshaped to n×dim) with standard-normal
// draws in row-major order.
func gaussianNoiseInto(dst *nn.Tensor, n, dim int, rng *rand.Rand) *nn.Tensor {
	dst.Reset(n, dim)
	data := dst.Data()
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	return dst
}

// checkReconInput validates a ReconstructT batch: one seed per row and the
// trained invariant width.
func checkReconInput(inv *nn.Tensor, seeds []int64, invDim int) error {
	if inv.Rows() != len(seeds) {
		return fmt.Errorf("core: %d invariant rows for %d seeds", inv.Rows(), len(seeds))
	}
	if inv.Cols() != invDim {
		return fmt.Errorf("core: reconstruct width %d, trained on %d", inv.Cols(), invDim)
	}
	return nil
}

// rowsInto copies inv into dst after checking that every row has the
// given width (Tensor.SetFromRows would silently truncate or zero-pad a
// ragged row).
func rowsInto(dst *nn.Tensor, inv [][]float64, width int) error {
	for i, row := range inv {
		if len(row) != width {
			return fmt.Errorf("core: reconstruct row %d has width %d, want %d", i, len(row), width)
		}
	}
	dst.SetFromRows(inv)
	return nil
}

// rowsScratch recycles reconstructRows' inference arenas, so a stream of
// small TransformTarget calls (one row each, say) does not regrow a fresh
// arena per call.
var rowsScratch = sync.Pool{New: func() any { return new(AdaptScratch) }}

// reconstructRows is the offline M=1 path behind TransformTarget: r's
// ReconstructT over raw invariant rows with the pinned seed 0 for every
// row, copied out of the scratch.
func reconstructRows(r Reconstructor, inv [][]float64) ([][]float64, error) {
	if len(inv) == 0 {
		return nil, nil
	}
	scr := rowsScratch.Get().(*AdaptScratch)
	defer rowsScratch.Put(scr)
	if err := rowsInto(&scr.inv, inv, len(inv[0])); err != nil {
		return nil, err
	}
	out, err := r.ReconstructT(&scr.inv, make([]int64, len(inv)), scr)
	if err != nil {
		return nil, err
	}
	return out.ToRows(), nil
}
