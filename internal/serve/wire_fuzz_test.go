package serve

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"netdrift/internal/binenc"
)

// sameRowsBits compares matrices by float bit pattern: -0 differs from
// +0, so bit-identity pins cannot pass on value equality alone, and NaN
// payloads (which the wire codec carries verbatim; finiteness is enforced
// by validateRows at the API boundary, not the codec) still compare equal
// to themselves.
func sameRowsBits(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// Fuzz targets for the two attacker-facing binary decoders: the row-batch
// request codec (network input) and the bundle envelope (artifact input).
// The invariant under fuzzing is the breaker-safety contract — malformed
// bytes must produce a typed error, never a panic, never an OOM-scale
// allocation, and anything that decodes cleanly must re-encode to an
// equivalent payload. CI runs these with a short -fuzztime as a smoke; the
// checked-in corpus under testdata/fuzz seeds both with the interesting
// shapes (valid payloads, truncations, forged counts).

func FuzzDecodeRowsRequest(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("NDRB"))
	f.Add(AppendRowsRequest(nil, [][]float64{{1, 2}, {3, 4}}, 7, true))
	f.Add(AppendRowsRequest(nil, [][]float64{}, 0, false))
	valid := AppendRowsRequest(nil, [][]float64{{1.5, -2.5, 0, 9}}, -1, false)
	f.Add(valid[:len(valid)-3])
	forged := append([]byte(nil), valid...)
	forged[16] = 0xFF // row count
	f.Add(forged)

	var buf RowBuf
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, seed, predict, err := DecodeRowsRequest(data, &buf)
		if err != nil {
			if rows != nil {
				t.Fatal("decode error but rows returned")
			}
			return
		}
		// Anything accepted must survive a re-encode → re-decode round trip.
		re := AppendRowsRequest(nil, rows, seed, predict)
		var buf2 RowBuf
		rows2, seed2, predict2, err := DecodeRowsRequest(re, &buf2)
		if err != nil {
			t.Fatalf("re-decode of accepted payload failed: %v", err)
		}
		if seed2 != seed || predict2 != predict || !sameRowsBits(rows2, rows) {
			t.Fatal("re-encoded payload decodes differently")
		}
	})
}

func FuzzReadBundleBinary(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("NDBF"))
	f.Add([]byte(`{"format_version":1}`))
	// A structurally valid envelope with a tiny (invalid) adapter section,
	// so mutation explores the header and section framing.
	seed := []byte("NDBF")
	seed = binenc.AppendU16(seed, 1)
	seed = binenc.AppendString(seed, "fuzz")
	seed = binenc.AppendBool(seed, false)
	seed = appendSection(seed, []byte{1, 0, 0, 0})
	f.Add(seed)
	f.Add(seed[:len(seed)-2])

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := ReadBundleBinary(data)
		if err == nil && (b == nil || b.Adapter == nil) {
			t.Fatal("nil-adapter bundle decoded without error")
		}
		if err != nil && b != nil {
			t.Fatal("decode error but bundle returned")
		}
		// The magic gate must be the only ErrBadMagic source.
		if errors.Is(err, ErrBadMagic) && bytes.HasPrefix(data, []byte(BundleMagic)) {
			t.Fatal("ErrBadMagic on a payload with valid magic")
		}
	})
}
