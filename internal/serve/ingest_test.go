package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// stubSink is a controllable IngestSink for handler tests.
type stubSink struct {
	mu   sync.Mutex
	got  int
	fail error
}

func (s *stubSink) IngestRows(rows [][]float64, labels []int) (IngestSummary, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fail != nil {
		return IngestSummary{}, s.fail
	}
	s.got += len(rows)
	return IngestSummary{Accepted: len(rows), Phase: "idle", ReservoirRows: s.got}, nil
}

func postIngest(t *testing.T, url, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url+EndpointIngest, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	var buf [1024]byte
	for {
		n, err := resp.Body.Read(buf[:])
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return resp, sb.String()
}

func TestIngestEndpoint(t *testing.T) {
	a, _, _ := fixtures(t)
	reg := NewRegistry(nil)
	reg.Swap(a)
	co := NewCoalescer(reg, Options{MaxBatch: 8})
	defer co.Close()
	srv := NewServer(reg, co, nil)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	t.Run("no sink is 503", func(t *testing.T) {
		resp, body := postIngest(t, ts.URL, `{"rows":[[1,2,3,4]]}`)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status = %d body %s, want 503", resp.StatusCode, body)
		}
	})

	sink := &stubSink{}
	srv.SetIngest(sink)

	t.Run("accepted batch", func(t *testing.T) {
		resp, body := postIngest(t, ts.URL, `{"rows":[[1,2,3,4],[5,6,7,8]],"labels":[0,1]}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d body %s", resp.StatusCode, body)
		}
		var sum IngestSummary
		if err := json.Unmarshal([]byte(body), &sum); err != nil {
			t.Fatal(err)
		}
		if sum.Accepted != 2 || sum.ReservoirRows != 2 {
			t.Fatalf("summary = %+v", sum)
		}
	})
	t.Run("malformed JSON is 400", func(t *testing.T) {
		if resp, _ := postIngest(t, ts.URL, `{"rows": [[1,`); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", resp.StatusCode)
		}
	})
	t.Run("sink rejection is 400", func(t *testing.T) {
		sink.fail = fmt.Errorf("%w: bad width", ErrIngestRejected)
		defer func() { sink.fail = nil }()
		resp, body := postIngest(t, ts.URL, `{"rows":[[1,2]]}`)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, "bad width") {
			t.Fatalf("status = %d body %s, want 400 + reason", resp.StatusCode, body)
		}
	})
	t.Run("sink internal error is 500", func(t *testing.T) {
		sink.fail = errors.New("reservoir on fire")
		defer func() { sink.fail = nil }()
		if resp, _ := postIngest(t, ts.URL, `{"rows":[[1,2,3,4]]}`); resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("status = %d, want 500", resp.StatusCode)
		}
	})
	t.Run("ctrl section on status", func(t *testing.T) {
		srv.SetCtrlStatus(func() any { return map[string]string{"phase": "watching"} })
		resp, err := http.Get(ts.URL + "/v1/status")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st struct {
			Ctrl map[string]string `json:"ctrl"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		if st.Ctrl["phase"] != "watching" {
			t.Fatalf("ctrl status section = %v", st.Ctrl)
		}
	})
}

// TestBreakerSurvivesPromoteRollbackRaces is the half-open race guard: a
// controller rollback (Registry.Swap) landing while a breaker load probe
// is in flight must neither wedge the breaker nor corrupt the registry.
// Run under -race.
func TestBreakerSurvivesPromoteRollbackRaces(t *testing.T) {
	a, b, _ := fixtures(t)
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	bad := filepath.Join(dir, "bad.json")
	if err := WriteBundleFileFormat(good, b.ID, b.Adapter, b.Classifier, FormatJSON); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, []byte("{not a bundle"), 0o644); err != nil {
		t.Fatal(err)
	}

	reg := NewRegistry(nil)
	reg.SetBreaker(NewBreaker("bundle", BreakerConfig{FailThreshold: 1, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond, Seed: 7}, nil))
	reg.Swap(a)

	// Promoters hammer good and bad loads (probes constantly moving the
	// breaker closed<->open<->half-open) while rollbackers swap the
	// incumbent back in, exactly what the controller watchdog does.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				path := good
				if i%2 == 0 {
					path = bad
				}
				_, err := reg.LoadFile(path)
				if err != nil && !errors.Is(err, ErrBreakerOpen) && path == good {
					t.Errorf("good load failed: %v", err)
					return
				}
			}
		}(i)
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				reg.Swap(a) // rollback: reinstall the retained incumbent
				time.Sleep(200 * time.Microsecond)
			}
		}()
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()

	if cur := reg.Current(); cur == nil || (cur.ID != a.ID && cur.ID != b.ID) {
		t.Fatalf("registry corrupted: %+v", cur)
	}
	// The breaker must not be wedged: after the chaos stops, a good load
	// must go through within a few backoff windows and close it.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := reg.LoadFile(good); err == nil {
			break
		} else if !errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("good load after chaos: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker wedged: %+v", reg.Breaker().Status())
		}
		time.Sleep(time.Millisecond)
	}
	if st := reg.Breaker().Status(); st.State != BreakerClosed {
		t.Fatalf("breaker state after good load = %+v, want closed", st)
	}
	if got := reg.Current().ID; got != b.ID {
		t.Fatalf("current = %q, want %q after final good load", got, b.ID)
	}
}
