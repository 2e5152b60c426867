// Package serve is the online serving layer: it exposes a fitted adapter
// (and optionally the downstream classifier) behind a micro-batching
// request coalescer with lock-free artifact hot-swap. The offline pipeline
// fits and persists artifacts; serve loads them as immutable bundles and
// runs only the inference hot paths (core.AdaptBatch, models.PredictProbaT),
// so one bundle safely serves any number of workers concurrently.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"netdrift/internal/core"
	"netdrift/internal/models"
)

const bundleFormatVersion = 1

// Bundle is one immutable, atomically swappable serving artifact: the
// fitted adapter plus an optional downstream classifier. Nothing in a
// loaded bundle is ever mutated — hot-swap replaces the whole pointer.
type Bundle struct {
	// ID distinguishes bundles across swaps; it is echoed in every
	// response so clients (and the torn-read race test) can attribute an
	// output to the exact artifact that produced it.
	ID         string
	Adapter    *core.Adapter
	Classifier *models.MLPClassifier // nil when the bundle ships no model
}

// bundleBlob is the on-disk JSON envelope. The adapter and classifier
// payloads are their own packages' persistence formats, embedded raw.
type bundleBlob struct {
	FormatVersion int             `json:"format_version"`
	ID            string          `json:"id"`
	Adapter       json.RawMessage `json:"adapter"`
	Classifier    json.RawMessage `json:"classifier,omitempty"`
}

// ErrNoAdapter is returned when a bundle blob has no adapter payload.
var ErrNoAdapter = errors.New("serve: bundle has no adapter")

// ReadBundle decodes a bundle from r.
func ReadBundle(r io.Reader) (*Bundle, error) {
	var blob bundleBlob
	if err := json.NewDecoder(r).Decode(&blob); err != nil {
		return nil, fmt.Errorf("serve: decode bundle: %w", err)
	}
	if blob.FormatVersion != bundleFormatVersion {
		return nil, fmt.Errorf("serve: unsupported bundle format %d", blob.FormatVersion)
	}
	if len(blob.Adapter) == 0 {
		return nil, ErrNoAdapter
	}
	b := &Bundle{ID: blob.ID}
	ad, err := core.LoadAdapter(bytes.NewReader(blob.Adapter))
	if err != nil {
		return nil, err
	}
	b.Adapter = ad
	if len(blob.Classifier) > 0 {
		clf, err := models.LoadMLPClassifier(bytes.NewReader(blob.Classifier))
		if err != nil {
			return nil, err
		}
		b.Classifier = clf
	}
	return b, nil
}

// LoadBundleFile reads a bundle from disk, sniffing the format: files
// starting with the NDBF magic decode through the binary fast path, any
// other content falls through to the JSON envelope. Both formats rebuild
// through the same blob-assembly code, so the loaded bundle is
// bit-identical either way.
func LoadBundleFile(path string) (*Bundle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) >= len(BundleMagic) && string(data[:len(BundleMagic)]) == BundleMagic {
		return ReadBundleBinary(data)
	}
	return ReadBundle(bytes.NewReader(data))
}

// WriteBundle serializes a fitted adapter (and optional classifier) as a
// bundle with the given id.
func WriteBundle(w io.Writer, id string, ad *core.Adapter, clf *models.MLPClassifier) error {
	if ad == nil {
		return ErrNoAdapter
	}
	blob := bundleBlob{FormatVersion: bundleFormatVersion, ID: id}
	var buf jsonBuffer
	if err := ad.Save(&buf); err != nil {
		return err
	}
	blob.Adapter = buf.take()
	if clf != nil {
		if err := clf.Save(&buf); err != nil {
			return err
		}
		blob.Classifier = buf.take()
	}
	return json.NewEncoder(w).Encode(&blob)
}

// jsonBuffer accumulates one sub-payload at a time for the envelope.
type jsonBuffer struct{ bytes.Buffer }

func (j *jsonBuffer) take() json.RawMessage {
	out := json.RawMessage(append([]byte(nil), j.Bytes()...))
	j.Reset()
	return out
}
