package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"netdrift/internal/core"
	"netdrift/internal/dataset"
	"netdrift/internal/models"
	"netdrift/internal/obs"
)

// toyDrift mirrors the drifted toy problem used across the repo's tests:
// f2 is the variant aggregate, mean-shifted in the target domain.
func toyDrift(n int, target bool, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % 2
		cs := float64(2*c - 1)
		f0 := cs + 0.5*rng.NormFloat64()
		f1 := cs*0.8 + 0.5*rng.NormFloat64()
		f2 := f0 + f1 + cs + 0.1*rng.NormFloat64()
		if target {
			f2 += 4
		}
		f3 := rng.NormFloat64()
		x[i] = []float64{f0, f1, f2, f3}
		y[i] = c
	}
	return &dataset.Dataset{X: x, Y: y}
}

// buildBundle fits a small adapter + classifier pair for serving tests.
// seed differentiates the fitted weights so hot-swapped bundles produce
// distinguishable outputs.
func buildBundle(t testing.TB, id string, seed int64) *Bundle {
	t.Helper()
	src := toyDrift(400, false, seed)
	tgtSupport := toyDrift(20, true, seed+1)
	ad := core.NewAdapter(core.AdapterConfig{
		Mode:  core.ModeFSRecon,
		Recon: core.ReconGAN,
		GAN:   core.GANConfig{Epochs: 6},
		Seed:  seed,
	})
	if err := ad.Fit(src, tgtSupport); err != nil {
		t.Fatal(err)
	}
	train, err := ad.TrainingData(src)
	if err != nil {
		t.Fatal(err)
	}
	clf := models.NewMLPClassifier(models.Options{Seed: seed, Epochs: 3})
	if err := clf.Fit(train.X, train.Y, 2); err != nil {
		t.Fatal(err)
	}
	// Round-trip through the bundle format so tests exercise exactly what
	// a server would load from disk.
	var buf bytes.Buffer
	if err := WriteBundle(&buf, id, ad, clf); err != nil {
		t.Fatal(err)
	}
	b, err := ReadBundle(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

var (
	fixtureOnce sync.Once
	fixtureA    *Bundle
	fixtureB    *Bundle
	fixtureRows [][]float64
)

// fixtures returns two distinguishable serving bundles plus probe rows,
// built once for the whole package.
func fixtures(t testing.TB) (*Bundle, *Bundle, [][]float64) {
	fixtureOnce.Do(func() {
		fixtureA = buildBundle(t, "bundle-a", 21)
		fixtureB = buildBundle(t, "bundle-b", 91)
		fixtureRows = toyDrift(48, true, 5).X
	})
	if fixtureA == nil || fixtureB == nil {
		t.Fatal("fixture build failed earlier")
	}
	return fixtureA, fixtureB, fixtureRows
}

// adaptWith runs rows through a bundle directly (no coalescer), returning
// defensive copies — the reference output for end-to-end comparisons.
func adaptWith(t testing.TB, b *Bundle, rows [][]float64, requestSeed int64) [][]float64 {
	t.Helper()
	seeds := make([]int64, len(rows))
	for i := range seeds {
		seeds[i] = core.SampleSeed(requestSeed, i)
	}
	var scr core.AdaptScratch
	out, err := b.Adapter.AdaptBatch(rows, seeds, &scr)
	if err != nil {
		t.Fatal(err)
	}
	cp := make([][]float64, out.Rows())
	for i := range cp {
		cp[i] = append([]float64(nil), out.Row(i)...)
	}
	return cp
}

func TestBundleFileRoundTrip(t *testing.T) {
	a, _, rows := fixtures(t)
	path := filepath.Join(t.TempDir(), "bundle.json")
	if err := WriteBundleFileFormat(path, a.ID, a.Adapter, a.Classifier, FormatJSON); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(nil)
	loaded, err := reg.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Current() != loaded {
		t.Error("LoadFile did not install the bundle")
	}
	if loaded.ID != a.ID || loaded.Classifier == nil {
		t.Errorf("loaded bundle id=%q classifier=%v", loaded.ID, loaded.Classifier != nil)
	}
	if !sameRowsBits(adaptWith(t, loaded, rows, 0), adaptWith(t, a, rows, 0)) {
		t.Error("bundle loaded from disk serves different outputs")
	}
	if _, err := reg.LoadFile(filepath.Join(t.TempDir(), "missing.json")); !os.IsNotExist(err) {
		t.Errorf("missing file: err = %v, want not-exist", err)
	}
}

func TestRegistrySingleflight(t *testing.T) {
	a, _, _ := fixtures(t)
	path := filepath.Join(t.TempDir(), "bundle.json")
	if err := WriteBundleFileFormat(path, a.ID, a.Adapter, a.Classifier, FormatJSON); err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	reg := NewRegistry(o)
	const callers = 8
	got := make([]*Bundle, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, err := reg.LoadFile(path)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = b
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if got[i] == nil {
			t.Fatal("caller got nil bundle")
		}
	}
	// Loads must coalesce: far fewer disk reads than callers. (Exact
	// count depends on scheduling; with the flight map it is usually 1.)
	var loads float64
	for _, s := range o.Registry.Snapshot() {
		if s.Name == obs.MetricServeBundleLoads {
			loads = s.Value
		}
	}
	if loads == 0 || loads > callers/2 {
		t.Errorf("bundle loads = %v for %d concurrent callers, want coalesced", loads, callers)
	}
}

func TestServerEndToEnd(t *testing.T) {
	a, _, rows := fixtures(t)
	o := obs.New()
	reg := NewRegistry(o)
	reg.Swap(a)
	co := NewCoalescer(reg, Options{MaxBatch: 16, Workers: 1, Obs: o})
	defer co.Close()
	ts := httptest.NewServer(NewServer(reg, co, o))
	defer ts.Close()

	// Health.
	hres, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if hres.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", hres.StatusCode)
	}
	hres.Body.Close()

	// Adapt with predictions: must match the direct (uncoalesced) path.
	body, _ := json.Marshal(AdaptRequest{Rows: rows, Predict: true})
	res, err := http.Post(ts.URL+"/v1/adapt", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("adapt status %d", res.StatusCode)
	}
	var ar AdaptResponse
	if err := json.NewDecoder(res.Body).Decode(&ar); err != nil {
		t.Fatal(err)
	}
	if ar.BundleID != a.ID {
		t.Errorf("bundle id %q, want %q", ar.BundleID, a.ID)
	}
	if !sameRowsBits(ar.Rows, adaptWith(t, a, rows, 0)) {
		t.Error("served rows differ from direct AdaptBatch")
	}
	if len(ar.Predictions) != len(rows) || len(ar.Predictions[0]) != 2 {
		t.Fatalf("predictions shape %dx?, want %dx2", len(ar.Predictions), len(rows))
	}

	// Bad requests.
	for _, payload := range []string{`{"rows":[]}`, `{not json`} {
		res, err := http.Post(ts.URL+"/v1/adapt", "application/json", strings.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusBadRequest {
			t.Errorf("payload %q: status %d, want 400", payload, res.StatusCode)
		}
	}

	// Metrics exposition includes the serving families.
	mres, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mres.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 64<<10)
	for {
		n, err := mres.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	text := sb.String()
	for _, want := range []string{
		obs.MetricServeRequests,
		obs.MetricServeRows,
		obs.MetricServeBatchSize + "_bucket",
		obs.MetricServeReqLatency + "_bucket",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

func TestServerNoBundle(t *testing.T) {
	reg := NewRegistry(nil)
	co := NewCoalescer(reg, Options{})
	defer co.Close()
	ts := httptest.NewServer(NewServer(reg, co, nil))
	defer ts.Close()

	hres, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hres.Body.Close()
	if hres.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz without bundle: status %d, want 503", hres.StatusCode)
	}
	res, err := http.Post(ts.URL+"/v1/adapt", "application/json",
		strings.NewReader(`{"rows":[[1,2,3,4]]}`))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("adapt without bundle: status %d, want 503", res.StatusCode)
	}
}

func TestSubmitCoalescesConcurrentRequests(t *testing.T) {
	a, _, rows := fixtures(t)
	o := obs.New()
	reg := NewRegistry(o)
	reg.Swap(a)
	co := NewCoalescer(reg, Options{MaxBatch: 32, Workers: 1, Obs: o})
	defer co.Close()

	want := adaptWith(t, a, rows, 0)
	const clients = 12
	perClient := len(rows) / clients
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lo := c * perClient
			res, err := co.Submit(context.Background(), rows[lo:lo+perClient], 0, false, nil)
			if err != nil {
				t.Error(err)
				return
			}
			// Seed 0 pins the noise, so every row's result is independent
			// of how requests were coalesced.
			if !sameRowsBits(res.Rows, want[lo:lo+perClient]) {
				t.Errorf("client %d got rows differing from the unbatched reference", c)
			}
		}(c)
	}
	wg.Wait()
	// The 12 concurrent 4-row requests must have shared batches.
	var batches, rowsServed float64
	for _, s := range o.Registry.Snapshot() {
		switch s.Name {
		case obs.MetricServeBatches:
			batches = s.Value
		case obs.MetricServeRows:
			rowsServed = s.Value
		}
	}
	if rowsServed != float64(clients*perClient) {
		t.Errorf("rows served = %v, want %d", rowsServed, clients*perClient)
	}
	if batches >= clients {
		t.Errorf("batches = %v for %d requests: no coalescing happened", batches, clients)
	}
}
