package main

import (
	"bytes"
	"context"
	"encoding/json"
	"hash/maphash"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"netdrift/internal/binenc"
	"netdrift/internal/serve"
)

// Open-loop load generation. A schedule fixes, before anything runs, when
// each request falls due and what it carries. The runner sends each request
// when it is due over a fixed set of keep-alive connections, whatever the
// server is doing: independent callers do not wait for each other. A
// request that cannot go out because every connection is busy waits, and
// that wait is charged to it, because latency runs from the due time.

type opKind uint8

const (
	opAdapt  opKind = iota // POST /v1/adapt, binary row codec, predict on
	opIngest               // POST /v1/ingest, JSON, labelled rows
)

// op is one scheduled request.
type op struct {
	Due  time.Duration // offset from the start of the stream
	Kind opKind
	Step int   // the load step (offered rate) the request belongs to
	Rows []int // indices into the workload's row pool
	Seed int64 // adapt: nonzero request seed, so row i draws core.SampleSeed(Seed, i)
}

// sizeMix is the adapt request size distribution. The sizes fall below, at
// and above the coalescer's MaxBatch of 32 rows, so a run covers its three
// regimes: waiting for a batch to fill, a full batch, and an overflow split.
// No production trace exists; the weights are an assumption.
var sizeMix = []struct {
	rows   int
	weight float64
}{{1, 0.70}, {8, 0.25}, {64, 0.05}}

func mixSize(rng *rand.Rand) int {
	u := rng.Float64()
	for _, m := range sizeMix {
		if u < m.weight {
			return m.rows
		}
		u -= m.weight
	}
	return sizeMix[len(sizeMix)-1].rows
}

func adaptOp(rng *rand.Rand, step int, due time.Duration, pool, size int) op {
	rows := make([]int, size)
	for i := range rows {
		rows[i] = rng.Intn(pool)
	}
	return op{Due: due, Kind: opAdapt, Step: step, Rows: rows, Seed: rng.Int63() | 1}
}

// poissonAdapt schedules adapt requests arriving as a Poisson process of
// the given rate (requests per second) over [start, start+dur).
func poissonAdapt(rng *rand.Rand, step int, start, dur time.Duration, rate float64, pool int) []op {
	var ops []op
	gap := func() time.Duration { return time.Duration(rng.ExpFloat64() / rate * float64(time.Second)) }
	for t := start + gap(); t < start+dur; t += gap() {
		ops = append(ops, adaptOp(rng, step, t, pool, mixSize(rng)))
	}
	return ops
}

// burstAdapt schedules n adapt requests all due at start, sized in the
// exact proportions of sizeMix and shuffled, so every burst carries the
// same rows. Over a fixed set of connections that is a closed loop: it
// drains as fast as the server answers.
func burstAdapt(rng *rand.Rand, step int, start time.Duration, n, pool int) []op {
	ops := make([]op, 0, n)
	for k, m := range sizeMix {
		count := int(math.Round(m.weight * float64(n)))
		if k == len(sizeMix)-1 {
			count = n - len(ops)
		}
		for i := 0; i < count; i++ {
			ops = append(ops, adaptOp(rng, step, start, pool, m.rows))
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// periodicIngest schedules one ingest of `rows` rows every `every` over
// [start, start+dur), walking order cyclically.
func periodicIngest(step int, start, dur, every time.Duration, rows int, order []int) []op {
	var ops []op
	next := 0
	for t := start; t < start+dur; t += every {
		idx := make([]int, rows)
		for i := range idx {
			idx[i] = order[next%len(order)]
			next++
		}
		ops = append(ops, op{Due: t, Kind: opIngest, Step: step, Rows: idx})
	}
	return ops
}

// mergeOps interleaves streams into one schedule ordered by due time.
func mergeOps(streams ...[]op) []op {
	var all []op
	for _, s := range streams {
		all = append(all, s...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Due < all[j].Due })
	return all
}

// outcome is what happened to one scheduled request.
type outcome struct {
	Sent, Done time.Duration // offsets from the stream start; Sent < 0 if never sent
	Backlog    int           // requests already due and still unsent when this one fell due
	Status     int
	Err        error
	Degraded   bool
	Bundle     string // adapt 200s: the bundle that answered
	Sum        uint64 // adapt 200s: hash of the response body
}

func (o outcome) ok() bool { return o.Err == nil && o.Status == http.StatusOK && !o.Degraded }

// sender performs request i on connection conn and reports its outcome;
// the runner fills in the timing fields.
type sender func(conn, i int) outcome

// openLoop sends ops[i] when it falls due, at start+ops[i].Due, over conns
// connections, until the schedule ends or ctx is canceled (requests already
// due are still sent). It returns one outcome per op.
func openLoop(ctx context.Context, start time.Time, ops []op, conns int, send sender) []outcome {
	out := make([]outcome, len(ops))
	for i := range out {
		out[i].Sent = -1
	}
	// Sized to the schedule: the backlog of due requests is unbounded by
	// design, and the dispatcher must never block behind it.
	queue := make(chan int, len(ops))
	var sent atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range queue {
				sent.Add(1)
				at := time.Since(start)
				o := send(c, i)
				o.Sent, o.Done, o.Backlog = at, time.Since(start), out[i].Backlog
				out[i] = o
			}
		}(c)
	}
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
dispatch:
	for i := range ops {
		if wait := time.Until(start.Add(ops[i].Due)); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				break dispatch
			}
		} else if ctx.Err() != nil {
			break
		}
		out[i].Backlog = i - int(sent.Load())
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out
}

// wireClient sends scheduled ops to a live server: adapt requests in the
// binary row codec with predictions on, ingest requests as JSON. Each
// load-generator connection is one keep-alive HTTP connection.
type wireClient struct {
	base    string
	ops     []op
	rows    [][]float64 // adapt row pool
	ingestX [][]float64 // ingest row pool
	ingestY []int
	// idPrefix, when set (traced passes), makes request i carry
	// X-Request-Id idPrefix+i, the trace ID its server spans adopt.
	idPrefix string
	conns    []*wireConn
}

type wireConn struct {
	http   *http.Client
	body   []byte
	resp   bytes.Buffer
	gather [][]float64
}

// hashSeed keys the response hashes; expected and received bodies are
// hashed in the same process, so any fixed seed works.
var hashSeed = maphash.MakeSeed()

func newWireClient(base string, conns int, ops []op, rows, ingestX [][]float64, ingestY []int, idPrefix string) *wireClient {
	w := &wireClient{base: base, ops: ops, rows: rows, ingestX: ingestX, ingestY: ingestY, idPrefix: idPrefix}
	for c := 0; c < conns; c++ {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		w.conns = append(w.conns, &wireConn{http: &http.Client{Transport: tr}})
	}
	return w
}

func (w *wireClient) close() {
	for _, c := range w.conns {
		c.http.CloseIdleConnections()
	}
}

func (w *wireClient) send(conn, i int) outcome {
	o := w.ops[i]
	c := w.conns[conn]
	var req *http.Request
	var err error
	switch o.Kind {
	case opAdapt:
		c.body, c.gather = appendAdaptBody(c.body[:0], c.gather, w.rows, o)
		req, err = http.NewRequest(http.MethodPost, w.base+serve.EndpointAdapt, bytes.NewReader(c.body))
		if err == nil {
			req.Header.Set("Content-Type", serve.ContentTypeRows)
		}
	case opIngest:
		ing := serve.IngestRequest{Rows: make([][]float64, len(o.Rows)), Labels: make([]int, len(o.Rows))}
		for k, r := range o.Rows {
			ing.Rows[k], ing.Labels[k] = w.ingestX[r], w.ingestY[r]
		}
		var body []byte
		if body, err = json.Marshal(ing); err == nil {
			req, err = http.NewRequest(http.MethodPost, w.base+serve.EndpointIngest, bytes.NewReader(body))
		}
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	}
	if err != nil {
		return outcome{Err: err}
	}
	if w.idPrefix != "" {
		req.Header.Set(serve.TraceHeader, w.idPrefix+strconv.Itoa(i))
	}
	res, err := c.http.Do(req)
	if err != nil {
		return outcome{Err: err}
	}
	c.resp.Reset()
	_, err = c.resp.ReadFrom(res.Body)
	res.Body.Close()
	out := outcome{Status: res.StatusCode, Err: err}
	if o.Kind == opAdapt && err == nil && res.StatusCode == http.StatusOK {
		out.Degraded = res.Header.Get(serve.DegradedHeader) == "true"
		out.Bundle = responseBundle(c.resp.Bytes())
		out.Sum = maphash.Bytes(hashSeed, c.resp.Bytes())
	}
	return out
}

// appendAdaptBody appends o's /v1/adapt request body to dst: its rows from
// pool, its seed, predictions on. gather is reusable scratch.
func appendAdaptBody(dst []byte, gather, pool [][]float64, o op) ([]byte, [][]float64) {
	gather = gather[:0]
	for _, r := range o.Rows {
		gather = append(gather, pool[r])
	}
	return serve.AppendRowsRequest(dst, gather, o.Seed, true), gather
}

// responseBundle reads the bundle ID from a binary /v1/adapt response
// header: magic, u16 version, u16 flags, then the u16-prefixed ID.
func responseBundle(body []byte) string {
	var r binenc.Reader
	r.Reset(body)
	r.Bytes(len(serve.RowsMagic))
	r.U16()
	r.U16()
	id := r.String()
	if r.Err() != nil {
		return ""
	}
	return id
}
