package models

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"

	"netdrift/internal/nn"
)

// MLP persistence mirrors the adapter format in internal/core/persist.go:
// record the architecture config plus a positional weight snapshot, rebuild
// the same network shape on load, then restore the snapshot over it. Only
// the MLP classifier is serializable — it is the downstream model the
// serving endpoint ships with a bundle.

const mlpPersistVersion = 1

type mlpBlob struct {
	Version    int          `json:"version"`
	In         int          `json:"in"`
	Hidden     []int        `json:"hidden"`
	NumClasses int          `json:"numClasses"`
	Dropout    float64      `json:"dropout"`
	Seed       int64        `json:"seed"`
	Snapshot   *nn.Snapshot `json:"snapshot"`
}

// Save serializes a fitted MLP classifier as JSON.
func (m *MLPClassifier) Save(w io.Writer) error {
	blob, err := m.saveBlob()
	if err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(blob)
}

// saveBlob assembles the persistence blob shared by the JSON and binary
// codecs, so both formats serialize exactly the same state.
func (m *MLPClassifier) saveBlob() (*mlpBlob, error) {
	if m.net == nil {
		return nil, ErrNotFitted
	}
	return &mlpBlob{
		Version:    mlpPersistVersion,
		In:         m.in,
		Hidden:     []int{128, 64}, // fixed by Fit
		NumClasses: m.numClasses,
		Dropout:    0.1,
		Seed:       m.opts.Seed,
		Snapshot:   nn.TakeSnapshot(m.net),
	}, nil
}

// LoadMLPClassifier restores a classifier saved with Save. The result
// supports PredictProba and PredictProbaT; it can be re-Fit, which replaces
// the restored network.
func LoadMLPClassifier(r io.Reader) (*MLPClassifier, error) {
	var blob mlpBlob
	if err := json.NewDecoder(r).Decode(&blob); err != nil {
		return nil, fmt.Errorf("models: decode classifier: %w", err)
	}
	return mlpFromBlob(&blob)
}

// mlpFromBlob rebuilds a classifier from its persistence blob — the one
// assembly path shared by the JSON and binary codecs.
func mlpFromBlob(blob *mlpBlob) (*MLPClassifier, error) {
	if blob.Version != mlpPersistVersion {
		return nil, fmt.Errorf("models: unsupported classifier version %d", blob.Version)
	}
	if blob.In <= 0 || blob.NumClasses <= 0 {
		return nil, fmt.Errorf("models: invalid classifier dims in=%d classes=%d", blob.In, blob.NumClasses)
	}
	m := NewMLPClassifier(Options{Seed: blob.Seed})
	m.in = blob.In
	m.numClasses = blob.NumClasses
	// Architecture must match Fit exactly; the snapshot restore overwrites
	// the random initialization.
	m.net = nn.NewMLP(nn.MLPConfig{
		In:      blob.In,
		Hidden:  append([]int(nil), blob.Hidden...),
		Out:     blob.NumClasses,
		Dropout: blob.Dropout,
		Rng:     rand.New(rand.NewSource(blob.Seed)),
	})
	if blob.Snapshot == nil {
		return nil, fmt.Errorf("models: classifier blob missing snapshot")
	}
	if err := nn.RestoreSnapshot(m.net, blob.Snapshot); err != nil {
		return nil, fmt.Errorf("models: restore classifier: %w", err)
	}
	return m, nil
}

// MLPScratch holds the buffers of one neural classifier prediction. One
// scratch serves one call at a time; the zero value is ready to use.
type MLPScratch struct {
	infer nn.InferScratch
	out   nn.Tensor
}

// PredictProbaT is PredictProba on the serving hot path, the same body
// over a caller-owned tensor and scratch: like PredictProba it is safe to
// call from many goroutines on one classifier, each with its own scratch,
// and a steady-state call allocates nothing. The returned tensor is
// scratch-owned and valid until the scratch's next use.
func (m *MLPClassifier) PredictProbaT(x *nn.Tensor, scr *MLPScratch) (*nn.Tensor, error) {
	if m.net == nil {
		return nil, ErrNotFitted
	}
	if x.Rows() == 0 {
		return scr.out.Reset(0, 0), nil
	}
	if x.Cols() != m.in {
		return nil, fmt.Errorf("models: input width %d, trained on %d", x.Cols(), m.in)
	}
	return m.softmaxInfer(x, scr), nil
}
