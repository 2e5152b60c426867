package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"netdrift/internal/fault"
	"netdrift/internal/obs"
)

// newCodecServer spins up a server over fixture bundle A for wire tests.
func newCodecServer(t *testing.T, o *obs.Observer, opts Options) (*httptest.Server, *Registry, *Coalescer) {
	t.Helper()
	a, _, _ := fixtures(t)
	reg := NewRegistry(o)
	reg.Swap(a)
	if opts.MaxBatch == 0 {
		opts.MaxBatch = 8
	}
	co := NewCoalescer(reg, opts)
	ts := httptest.NewServer(NewServer(reg, co, o))
	t.Cleanup(func() { ts.Close(); co.Close() })
	return ts, reg, co
}

// postBinary sends a binary adapt request and returns the raw response.
func postBinary(t *testing.T, url string, payload []byte, accept string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest("POST", url+"/v1/adapt", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ContentTypeRows)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return res, body
}

// TestRowsWireRoundTrip pins the codec at the byte level: encode → decode
// recovers every field bit for bit, for requests and responses, with and
// without predictions.
func TestRowsWireRoundTrip(t *testing.T) {
	rows := [][]float64{{1.5, -2.25, 1e-300, 42}, {0, -0, 3.14159, -1e308}}
	payload := AppendRowsRequest(nil, rows, 77, true)
	var buf RowBuf
	got, seed, predict, err := DecodeRowsRequest(payload, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if seed != 77 || !predict || !sameRowsBits(got, rows) {
		t.Fatalf("request round trip: seed=%d predict=%v sameRowsBits=%v", seed, predict, sameRowsBits(got, rows))
	}

	res := Result{
		BundleID:    "bundle-x",
		Rows:        rows,
		Predictions: [][]float64{{0.25, 0.75}, {0.5, 0.5}},
		Degraded:    true,
	}
	out, err := DecodeRowsResponse(AppendRowsResponse(nil, &res))
	if err != nil {
		t.Fatal(err)
	}
	if out.BundleID != res.BundleID || !out.Degraded ||
		!sameRowsBits(out.Rows, res.Rows) || !sameRowsBits(out.Predictions, res.Predictions) {
		t.Fatalf("response round trip mismatch: %+v", out)
	}

	// No predictions: the section must be absent, not empty.
	res.Predictions = nil
	res.Degraded = false
	out, err = DecodeRowsResponse(AppendRowsResponse(nil, &res))
	if err != nil {
		t.Fatal(err)
	}
	if out.Predictions != nil || out.Degraded {
		t.Fatalf("prediction-less round trip: %+v", out)
	}
}

// TestAdaptCrossCodecGolden is the tentpole equivalence gate: the same
// request through the JSON codec and the binary codec must produce
// bit-identical adapted rows and predictions, and the binary response must
// carry the same bundle id.
func TestAdaptCrossCodecGolden(t *testing.T) {
	ts, _, _ := newCodecServer(t, nil, Options{})
	_, _, rows := fixtures(t)
	probe := rows[:6]

	rowsBlob, _ := json.Marshal(probe)
	jres, err := http.Post(ts.URL+"/v1/adapt", "application/json",
		strings.NewReader(fmt.Sprintf(`{"rows":%s,"predict":true,"seed":9}`, rowsBlob)))
	if err != nil {
		t.Fatal(err)
	}
	var jout AdaptResponse
	if err := json.NewDecoder(jres.Body).Decode(&jout); err != nil {
		t.Fatal(err)
	}
	jres.Body.Close()
	if jres.StatusCode != http.StatusOK {
		t.Fatalf("JSON request status %d", jres.StatusCode)
	}

	bres, body := postBinary(t, ts.URL, AppendRowsRequest(nil, probe, 9, true), "")
	if bres.StatusCode != http.StatusOK {
		t.Fatalf("binary request status %d: %s", bres.StatusCode, body)
	}
	if ct := bres.Header.Get("Content-Type"); ct != ContentTypeRows {
		t.Fatalf("binary response Content-Type %q", ct)
	}
	bout, err := DecodeRowsResponse(body)
	if err != nil {
		t.Fatal(err)
	}

	if bout.BundleID != jout.BundleID {
		t.Errorf("bundle id %q vs %q across codecs", bout.BundleID, jout.BundleID)
	}
	if !sameRowsBits(bout.Rows, jout.Rows) {
		t.Error("adapted rows differ between JSON and binary codecs")
	}
	if !sameRowsBits(bout.Predictions, jout.Predictions) {
		t.Error("predictions differ between JSON and binary codecs")
	}
	if bout.Degraded || jout.Degraded {
		t.Error("healthy cross-codec request reported degraded")
	}
}

// TestAdaptContentNegotiation pins the codec-selection contract on
// /v1/adapt: Accept wins, then the response follows the request codec.
func TestAdaptContentNegotiation(t *testing.T) {
	ts, _, _ := newCodecServer(t, nil, Options{})
	_, _, rows := fixtures(t)
	probe := rows[:2]
	rowsBlob, _ := json.Marshal(probe)
	jsonBody := fmt.Sprintf(`{"rows":%s}`, rowsBlob)
	binBody := AppendRowsRequest(nil, probe, 0, false)

	cases := []struct {
		name        string
		contentType string
		body        []byte
		accept      string
		wantCT      string
	}{
		{"json to json", "application/json", []byte(jsonBody), "", "application/json"},
		{"binary to binary", ContentTypeRows, binBody, "", ContentTypeRows},
		{"json upgrades via accept", "application/json", []byte(jsonBody), ContentTypeRows, ContentTypeRows},
		{"binary downgraded via accept", ContentTypeRows, binBody, "application/json", "application/json"},
		{"binary with wildcard accept", ContentTypeRows, binBody, "*/*", ContentTypeRows},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest("POST", ts.URL+"/v1/adapt", bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", tc.contentType)
			if tc.accept != "" {
				req.Header.Set("Accept", tc.accept)
			}
			res, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(res.Body)
			res.Body.Close()
			if res.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", res.StatusCode, body)
			}
			if ct := res.Header.Get("Content-Type"); !strings.Contains(ct, tc.wantCT) {
				t.Errorf("Content-Type %q, want %q", ct, tc.wantCT)
			}
		})
	}
}

// TestBinaryDegradedPassthrough drives the executor into failure and
// checks the degradation contract holds on the binary codec: 200, the raw
// rows echoed bit for bit, the degraded flag set in the payload, and the
// X-Netdrift-Degraded header present.
func TestBinaryDegradedPassthrough(t *testing.T) {
	inj := fault.New(11)
	ts, _, _ := newCodecServer(t, nil, Options{Workers: 1, Faults: inj, Breaker: fastBreaker()})
	_, _, rows := fixtures(t)
	probe := rows[:3]
	payload := AppendRowsRequest(nil, probe, 0, false)

	inj.Set(FaultSiteExec, fault.Spec{ErrRate: 1})
	res, body := postBinary(t, ts.URL, payload, "")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("degraded binary status %d: %s", res.StatusCode, body)
	}
	if res.Header.Get(DegradedHeader) != "true" {
		t.Errorf("degraded response missing %s header", DegradedHeader)
	}
	out, err := DecodeRowsResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Degraded {
		t.Error("binary payload degraded flag not set")
	}
	if !sameRowsBits(out.Rows, probe) {
		t.Error("degraded binary response does not echo raw input rows")
	}
	inj.Clear()
}

// TestMalformedBinaryRequestDoesNotTripBreakers is the breaker-safety
// satellite: malformed wire input of every flavor must be rejected with a
// 400 before it reaches the coalescer, leaving both the load breaker and
// the executor breaker closed.
func TestMalformedBinaryRequestDoesNotTripBreakers(t *testing.T) {
	ts, reg, co := newCodecServer(t, nil, Options{})
	_, _, rows := fixtures(t)
	good := AppendRowsRequest(nil, rows[:2], 0, false)

	bad := [][]byte{
		nil,
		[]byte("garbage that is not NDRB at all"),
		good[:3],
		good[:len(good)-5],
		append(append([]byte(nil), good[:6]...), 0xFF, 0xFF), // mangled header
		AppendRowsRequest(nil, [][]float64{}, 0, false),      // zero rows
	}
	// Forged row count pointing past the payload.
	forged := append([]byte(nil), good...)
	forged[16] = 0xFF
	bad = append(bad, forged)

	for i, payload := range bad {
		res, body := postBinary(t, ts.URL, payload, "")
		if res.StatusCode != http.StatusBadRequest {
			t.Errorf("malformed payload %d: status %d (%s), want 400", i, res.StatusCode, body)
		}
		if ct := res.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
			t.Errorf("malformed payload %d: error Content-Type %q, want JSON", i, ct)
		}
	}
	if st := reg.Breaker().Status(); st.State != BreakerClosed || st.ConsecutiveFails != 0 {
		t.Errorf("load breaker after malformed flood: %+v, want closed/0", st)
	}
	if st := co.Status().ExecBreaker; st.State != BreakerClosed || st.ConsecutiveFails != 0 {
		t.Errorf("exec breaker after malformed flood: %+v, want closed/0", st)
	}
	// The server still serves golden afterwards.
	res, body := postBinary(t, ts.URL, good, "")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("good request after malformed flood: status %d: %s", res.StatusCode, body)
	}
}

// TestBundleBinaryGolden is the artifact-side tentpole gate: the same
// fitted pair written as JSON and as binary must load (via the sniffing
// LoadBundleFile) to adapters and classifiers that produce bit-identical
// outputs, and the binary file must be the smaller artifact.
func TestBundleBinaryGolden(t *testing.T) {
	a, _, rows := fixtures(t)
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "b.json")
	binPath := filepath.Join(dir, "b.bin")
	if err := WriteBundleFileFormat(jsonPath, "golden", a.Adapter, a.Classifier, FormatJSON); err != nil {
		t.Fatal(err)
	}
	if err := WriteBundleFileFormat(binPath, "golden", a.Adapter, a.Classifier, FormatBinary); err != nil {
		t.Fatal(err)
	}

	fromJSON, err := LoadBundleFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := LoadBundleFile(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if fromBin.ID != "golden" || fromJSON.ID != fromBin.ID {
		t.Fatalf("ids %q / %q", fromJSON.ID, fromBin.ID)
	}
	probe := rows[:5]
	if !sameRowsBits(adaptWith(t, fromJSON, probe, 3), adaptWith(t, fromBin, probe, 3)) {
		t.Error("adapters loaded from JSON and binary bundles adapt differently")
	}
	pj, err := fromJSON.Classifier.PredictProba(probe)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := fromBin.Classifier.PredictProba(probe)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRowsBits(pj, pb) {
		t.Error("classifiers loaded from JSON and binary bundles predict differently")
	}

	ji, _ := os.Stat(jsonPath)
	bi, _ := os.Stat(binPath)
	if bi.Size() >= ji.Size() {
		t.Errorf("binary bundle (%d B) not smaller than JSON (%d B)", bi.Size(), ji.Size())
	}
}

// TestReadBundleBinaryMalformed covers the corrupt-artifact sweep: bad
// magic, truncations, a flipped payload byte (checksum), and a forged
// section length must all fail typed, never panic, never misload.
func TestReadBundleBinaryMalformed(t *testing.T) {
	a, _, _ := fixtures(t)
	data, err := AppendBundleBinary(nil, "m", a.Adapter, a.Classifier)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBundleBinary([]byte("JSON{}")); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: err = %v, want ErrBadMagic", err)
	}
	for _, cut := range []int{0, 3, 4, 8, 32, len(data) / 2, len(data) - 1} {
		if _, err := ReadBundleBinary(data[:cut]); err == nil {
			t.Errorf("truncation at %d bytes loaded successfully", cut)
		}
	}
	// Flip one payload byte deep in the adapter section: the CRC must
	// catch it.
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)/2] ^= 0x40
	if _, err := ReadBundleBinary(corrupt); err == nil {
		t.Error("bit-flipped bundle loaded successfully")
	}
}

// TestBinaryDecodeSteadyStateAllocs gates the zero-alloc hot path: with a
// warm RowBuf and a warm response buffer, request decode and response
// encode must allocate nothing. Named to match the CI allocation-budget
// test filter.
func TestBinaryDecodeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed under -race")
	}
	rows := make([][]float64, 32)
	for i := range rows {
		rows[i] = []float64{float64(i), 1.5, -2.5, 3.25}
	}
	payload := AppendRowsRequest(nil, rows, 5, true)
	var buf RowBuf
	if _, _, _, err := DecodeRowsRequest(payload, &buf); err != nil { // warm-up
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, _, err := DecodeRowsRequest(payload, &buf); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state DecodeRowsRequest allocates %.1f/op, want 0", allocs)
	}

	res := Result{BundleID: "b", Rows: rows}
	dst := AppendRowsResponse(nil, &res) // warm-up sizes the buffer
	allocs = testing.AllocsPerRun(200, func() {
		dst = AppendRowsResponse(dst[:0], &res)
	})
	if allocs != 0 {
		t.Errorf("steady-state AppendRowsResponse allocates %.1f/op, want 0", allocs)
	}
}
