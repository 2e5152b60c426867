// Package causal implements the constraint-based causal machinery behind
// the paper's FS method: Fisher-z conditional-independence tests on a
// pooled source+target dataset augmented with an F-node (domain indicator),
// and the PC-style neighbourhood search that identifies soft-intervention
// targets — the domain-variant features (§V-A). The full causal graph is
// never built.
package causal

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"netdrift/internal/mat"
	"netdrift/internal/stats"
)

// CorrMatrix computes the Pearson correlation matrix of the columns of x.
func CorrMatrix(x [][]float64) (*mat.Matrix, error) {
	m, err := mat.FromRows(x)
	if err != nil {
		return nil, err
	}
	cov, err := mat.Covariance(m)
	if err != nil {
		return nil, err
	}
	return mat.CorrelationFromCov(cov), nil
}

// PartialCorr computes the partial correlation between variables i and j
// given the conditioning set cond, from a full correlation matrix. It uses
// the precision-matrix identity ρ_{ij·S} = -P_ij / sqrt(P_ii P_jj) over the
// submatrix restricted to {i, j} ∪ S.
func PartialCorr(corr *mat.Matrix, i, j int, cond []int) (float64, error) {
	if i == j {
		return 1, nil
	}
	if len(cond) == 0 {
		return corr.At(i, j), nil
	}
	idx := make([]int, 0, 2+len(cond))
	idx = append(idx, i, j)
	idx = append(idx, cond...)
	sub, err := corr.SubMatrix(idx, idx)
	if err != nil {
		return 0, err
	}
	// Ridge for numerical safety with nearly collinear telemetry columns.
	for k := 0; k < len(idx); k++ {
		sub.Set(k, k, sub.At(k, k)+1e-8)
	}
	prec, err := mat.Inverse(sub)
	if err != nil {
		return 0, fmt.Errorf("causal: precision of conditioning set: %w", err)
	}
	den := prec.At(0, 0) * prec.At(1, 1)
	if den <= 0 {
		return 0, nil
	}
	r := -prec.At(0, 1) / math.Sqrt(den)
	if r > 1 {
		r = 1
	}
	if r < -1 {
		r = -1
	}
	return r, nil
}

// ciWorkspace holds the scratch buffers for one partial-correlation
// evaluation: the index set, the conditioning submatrix (which the
// Gaussian elimination then works in), and the precision matrix.
// Workspaces are checked out of a per-tester sync.Pool so concurrent
// PValue callers (e.g. par.ForEach workers in FindVariantFeatures) each
// reuse their own buffers without racing.
type ciWorkspace struct {
	idx       []int
	sub, prec mat.Matrix
}

// partialCorrWs is PartialCorr evaluated in a caller-owned workspace. The
// arithmetic is identical to PartialCorr (pinned by the golden test in
// citest_test.go); only the buffer lifetimes differ.
func partialCorrWs(corr *mat.Matrix, i, j int, cond []int, ws *ciWorkspace) (float64, error) {
	if i == j {
		return 1, nil
	}
	if len(cond) == 0 {
		return corr.At(i, j), nil
	}
	if cap(ws.idx) < 2+len(cond) {
		ws.idx = make([]int, 0, 2+len(cond))
	}
	ws.idx = append(ws.idx[:0], i, j)
	ws.idx = append(ws.idx, cond...)
	sub, err := corr.SubMatrixInto(&ws.sub, ws.idx, ws.idx)
	if err != nil {
		return 0, err
	}
	// Ridge for numerical safety with nearly collinear telemetry columns.
	for k := 0; k < len(ws.idx); k++ {
		sub.Set(k, k, sub.At(k, k)+1e-8)
	}
	prec, err := mat.InverseInto(sub, sub, &ws.prec)
	if err != nil {
		return 0, fmt.Errorf("causal: precision of conditioning set: %w", err)
	}
	den := prec.At(0, 0) * prec.At(1, 1)
	if den <= 0 {
		return 0, nil
	}
	r := -prec.At(0, 1) / math.Sqrt(den)
	if r > 1 {
		r = 1
	}
	if r < -1 {
		r = -1
	}
	return r, nil
}

// memoMaxCond bounds the conditioning-set size held in the p-value memo key
// (the PC-style searches here are order-limited well below it; larger sets
// bypass the memo rather than allocate variable-length keys).
const memoMaxCond = 4

// citKey identifies one CI test exactly as issued — i, j, and the
// conditioning set in call order — so a memo hit returns the identical
// float the recomputation would have produced.
type citKey struct {
	i, j  int32
	nCond int32
	cond  [memoMaxCond]int32
}

// CITester runs Fisher-z conditional-independence tests against a fixed
// dataset's correlation matrix. Repeated tests are served from a p-value
// memo (PC-style searches re-issue the same test across conditioning
// orders), and each evaluation runs in a pooled scratch workspace, so
// steady-state testing allocates nothing. Safe for concurrent use.
type CITester struct {
	corr *mat.Matrix
	n    int

	pool sync.Pool // *ciWorkspace
	mu   sync.RWMutex
	memo map[citKey]float64
}

// ErrNoData is returned when a tester is built from an empty dataset.
var ErrNoData = errors.New("causal: empty dataset")

// NewCITester precomputes the correlation structure of x (rows = samples).
func NewCITester(x [][]float64) (*CITester, error) {
	if len(x) < 4 {
		return nil, fmt.Errorf("%w: need >= 4 samples, have %d", ErrNoData, len(x))
	}
	m, err := mat.FromRows(x)
	if err != nil {
		return nil, err
	}
	return NewCITesterMatrix(m, 1)
}

// NewCITesterMatrix precomputes the correlation structure of a sample
// matrix (rows = samples) without the [][]float64 conversion, using up to
// workers goroutines for the covariance accumulation. The correlation
// matrix is bit-identical for every worker count.
func NewCITesterMatrix(x *mat.Matrix, workers int) (*CITester, error) {
	if x.Rows() < 4 {
		return nil, fmt.Errorf("%w: need >= 4 samples, have %d", ErrNoData, x.Rows())
	}
	cov, err := mat.CovarianceWorkers(x, workers)
	if err != nil {
		return nil, err
	}
	t := &CITester{
		corr: mat.CorrelationFromCov(cov),
		n:    x.Rows(),
		memo: make(map[citKey]float64),
	}
	t.pool.New = func() any { return &ciWorkspace{} }
	return t, nil
}

// PValue returns the Fisher-z two-sided p-value for the hypothesis
// X_i ⟂ X_j | X_cond. Results are memoized per exact (i, j, cond) triple;
// concurrent callers may race to compute the same entry, which is harmless
// because the evaluation is deterministic.
func (t *CITester) PValue(i, j int, cond []int) (float64, error) {
	memoable := len(cond) <= memoMaxCond
	var key citKey
	if memoable {
		key.i, key.j = int32(i), int32(j)
		key.nCond = int32(len(cond))
		for k, c := range cond {
			key.cond[k] = int32(c)
		}
		t.mu.RLock()
		p, ok := t.memo[key]
		t.mu.RUnlock()
		if ok {
			return p, nil
		}
	}
	ws, _ := t.pool.Get().(*ciWorkspace)
	if ws == nil {
		ws = &ciWorkspace{}
	}
	r, err := partialCorrWs(t.corr, i, j, cond, ws)
	t.pool.Put(ws)
	if err != nil {
		return 0, err
	}
	p := stats.FisherZPValue(r, t.n, len(cond))
	if memoable {
		t.mu.Lock()
		if t.memo == nil {
			t.memo = make(map[citKey]float64)
		}
		t.memo[key] = p
		t.mu.Unlock()
	}
	return p, nil
}
