package core

import (
	"fmt"
	"math/rand"

	"netdrift/internal/nn"
)

// This file is the adaptation serving hot path. TransformTarget is the
// offline, allocating API; Adapt/AdaptBatch run the same alignment over
// caller-owned scratch and the inference-only forward kernels so a
// steady-state micro-batch performs no allocations and many workers can
// share one fitted (immutable) Adapter concurrently.
//
// Determinism contract (see DESIGN.md): the generator noise for a row
// depends only on that row's seed — never on batch composition — so a
// coalesced micro-batch is bit-identical to adapting each row alone.
// Seed 0 selects the pinned prior-mode draw (the paper's M=1 inference,
// exactly what TransformTarget uses); any other seed selects a
// reproducible Gaussian draw.

// SampleSeed derives the noise seed for row i of a request from the
// request-scoped seed, via a splitmix64 step so adjacent rows get
// decorrelated streams. A zero request seed stays zero for every row,
// preserving the pinned-noise default.
func SampleSeed(requestSeed int64, i int) int64 {
	if requestSeed == 0 {
		return 0
	}
	z := uint64(requestSeed) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1 // keep the "pinned noise" sentinel unreachable from nonzero seeds
	}
	return int64(z)
}

// AdaptScratch holds the per-worker buffers behind AdaptBatch and
// Reconstructor.ReconstructT. One scratch serves one call at a time;
// serving workers own one each. The zero value is ready to use and grows
// to steady state on first call.
type AdaptScratch struct {
	scaled nn.Tensor // full-width scaled input rows
	inv    nn.Tensor // invariant column gather
	noise  nn.Tensor // per-row generator noise
	genIn  nn.Tensor // [inv | noise]
	out    nn.Tensor // merged full-width output
	infer  nn.InferScratch
	rng    *rand.Rand // reseeded per row; avoids a rand.New per sample
}

// seeded returns the scratch RNG reseeded to seed, reproducing exactly
// the draw stream of rand.New(rand.NewSource(seed)).
func (s *AdaptScratch) seeded(seed int64) *rand.Rand {
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(seed))
		return s.rng
	}
	s.rng.Seed(seed)
	return s.rng
}

// AdaptBatch aligns a micro-batch of raw target rows in one pass: scale,
// stitch the invariant block with per-row noise, one generator forward
// for the whole batch, merge. seeds carries one noise seed per row
// (derive them with SampleSeed). Each output row is bit-identical to a
// 1-row call with that row's seed, and — with all-zero seeds — to
// TransformTarget. The returned tensor is scratch-owned and valid until
// the scratch's next use; a steady-state call allocates nothing.
//
// AdaptBatch never mutates the Adapter, so any number of goroutines may
// serve from one fitted Adapter concurrently, each with its own scratch.
func (a *Adapter) AdaptBatch(rows [][]float64, seeds []int64, scr *AdaptScratch) (*nn.Tensor, error) {
	if !a.fitted {
		return nil, ErrNotFitted
	}
	if len(rows) == 0 {
		return scr.out.Reset(0, 0), nil
	}
	if len(rows) != len(seeds) {
		return nil, fmt.Errorf("core: %d rows for %d seeds", len(rows), len(seeds))
	}
	width := len(a.sep.invariant) + len(a.sep.variant)
	scaled := scr.scaled.Reset(len(rows), width)
	for i, row := range rows {
		if err := a.sep.scaler.TransformRowInto(scaled.Row(i), row); err != nil {
			return nil, err
		}
	}
	if a.cfg.Mode == ModeFS {
		// Invariant projection: the FS-only serving output.
		out := scr.out.Reset(len(rows), len(a.sep.invariant))
		for i := 0; i < scaled.Rows(); i++ {
			src := scaled.Row(i)
			dst := out.Row(i)
			for k, c := range a.sep.invariant {
				dst[k] = src[c]
			}
		}
		return out, nil
	}
	if a.recon == nil {
		// No variant features identified: pass-through scaling.
		return scaled, nil
	}
	inv := scr.inv.Reset(len(rows), len(a.sep.invariant))
	for i := 0; i < scaled.Rows(); i++ {
		src := scaled.Row(i)
		dst := inv.Row(i)
		for k, c := range a.sep.invariant {
			dst[k] = src[c]
		}
	}
	vrHat, err := a.recon.ReconstructT(inv, seeds, scr)
	if err != nil {
		return nil, err
	}
	if vrHat.Rows() != len(rows) || vrHat.Cols() != len(a.sep.variant) {
		return nil, fmt.Errorf("core: reconstructor returned %dx%d, want %dx%d",
			vrHat.Rows(), vrHat.Cols(), len(rows), len(a.sep.variant))
	}
	out := scr.out.Reset(len(rows), width)
	for i := 0; i < out.Rows(); i++ {
		dst := out.Row(i)
		invRow := inv.Row(i)
		vrRow := vrHat.Row(i)
		for k, c := range a.sep.invariant {
			dst[c] = invRow[k]
		}
		for k, c := range a.sep.variant {
			dst[c] = vrRow[k]
		}
	}
	return out, nil
}
