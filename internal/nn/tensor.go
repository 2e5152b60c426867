package nn

import (
	"math/rand"

	"netdrift/internal/mat"
)

// Tensor is a flat, row-major batch of float64 rows — the storage behind the
// package's zero-allocation hot path. Layers hold Tensors as reusable
// scratch: Reset reshapes in place and only reallocates when the required
// element count exceeds the existing capacity, so steady-state training
// loops stop allocating after the first batch of each shape.
//
// A Tensor returned by a layer's ForwardT/BackwardT is that layer's scratch
// buffer: it is valid until the layer's next ForwardT/BackwardT call and
// must not be retained across it. Callers that need isolation use ToRows.
type Tensor struct {
	rows, cols int
	data       []float64
}

// NewTensor allocates a rows×cols tensor (zeroed).
func NewTensor(rows, cols int) *Tensor {
	t := &Tensor{}
	t.Reset(rows, cols)
	for i := range t.data {
		t.data[i] = 0
	}
	return t
}

// Reset reshapes the tensor to rows×cols, reusing the existing backing
// array when it is large enough. The contents after Reset are undefined
// (kernels fully overwrite their outputs); use ZeroReset for accumulators.
// It returns the tensor for call chaining.
func (t *Tensor) Reset(rows, cols int) *Tensor {
	n := rows * cols
	if cap(t.data) < n {
		t.data = make([]float64, n)
	}
	t.data = t.data[:n]
	t.rows, t.cols = rows, cols
	return t
}

// ZeroReset is Reset followed by a zero fill of the new shape.
func (t *Tensor) ZeroReset(rows, cols int) *Tensor {
	t.Reset(rows, cols)
	for i := range t.data {
		t.data[i] = 0
	}
	return t
}

// Rows returns the number of rows.
func (t *Tensor) Rows() int { return t.rows }

// Cols returns the number of columns.
func (t *Tensor) Cols() int { return t.cols }

// Data returns the backing row-major slice (length Rows·Cols).
func (t *Tensor) Data() []float64 { return t.data }

// Row returns row i as a view into the backing array.
func (t *Tensor) Row(i int) []float64 {
	return t.data[i*t.cols : (i+1)*t.cols]
}

// ViewRows points view at rows [lo, hi) of t without copying: the view
// shares t's backing array. Shard trainers use it to hand each shard its
// contiguous row range of a batch tensor with zero allocation. The view is
// valid as long as t's backing array is (Reset on t may invalidate it).
func (t *Tensor) ViewRows(lo, hi int, view *Tensor) *Tensor {
	view.rows, view.cols = hi-lo, t.cols
	view.data = t.data[lo*t.cols : hi*t.cols]
	return view
}

// At returns element (i, j).
func (t *Tensor) At(i, j int) float64 { return t.data[i*t.cols+j] }

// Set assigns element (i, j).
func (t *Tensor) Set(i, j int, v float64) { t.data[i*t.cols+j] = v }

// SetFromRows reshapes the tensor to match x and copies x into it. Ragged
// input keeps the first row's width (rows are assumed equal-length, the
// package-wide batch contract).
func (t *Tensor) SetFromRows(x [][]float64) *Tensor {
	if len(x) == 0 {
		return t.Reset(0, 0)
	}
	t.Reset(len(x), len(x[0]))
	for i, row := range x {
		copy(t.Row(i), row)
	}
	return t
}

// ToRows copies the tensor into a fresh [][]float64 whose rows share one
// newly allocated backing array. The result does not alias the tensor.
func (t *Tensor) ToRows() [][]float64 {
	out := make([][]float64, t.rows)
	if t.rows == 0 {
		return out
	}
	flat := make([]float64, len(t.data))
	copy(flat, t.data)
	for i := range out {
		out[i] = flat[i*t.cols : (i+1)*t.cols]
	}
	return out
}

// Mat wraps the tensor's storage as a mat.Matrix view (no copy). The matrix
// aliases the tensor and is invalidated by the next Reset that grows it.
func (t *Tensor) Mat() (*mat.Matrix, error) {
	return mat.Wrap(t.rows, t.cols, t.data)
}

// ConcatInto writes the row-wise concatenation [parts[0] | parts[1] | ...]
// into dst and returns dst. All parts must have the same number of rows.
func ConcatInto(dst *Tensor, parts ...*Tensor) *Tensor {
	if len(parts) == 0 {
		return dst.Reset(0, 0)
	}
	rows := parts[0].rows
	width := 0
	for _, p := range parts {
		width += p.cols
	}
	dst.Reset(rows, width)
	for i := 0; i < rows; i++ {
		row := dst.Row(i)
		off := 0
		for _, p := range parts {
			copy(row[off:off+p.cols], p.Row(i))
			off += p.cols
		}
	}
	return dst
}

// GatherInto copies the given rows of x into dst (dst is reshaped to
// len(idx)×len(x[0])) and returns dst. The rows are copied, not shared, so
// dst is a self-contained batch.
func GatherInto(dst *Tensor, x [][]float64, idx []int) *Tensor {
	if len(idx) == 0 || len(x) == 0 {
		return dst.Reset(0, 0)
	}
	dst.Reset(len(idx), len(x[0]))
	for i, j := range idx {
		copy(dst.Row(i), x[j])
	}
	return dst
}

// GatherLabelsInto writes the labels of the given rows into dst, grown
// only when needed, and returns it.
func GatherLabelsInto(dst, y, idx []int) []int {
	dst = dst[:0]
	for _, j := range idx {
		dst = append(dst, y[j])
	}
	return dst
}

// permInto writes a pseudo-random permutation of [0, n) into buf, consuming
// exactly the same rng draws — and producing exactly the same permutation —
// as rng.Perm(n) (pinned by TestPermIntoMatchesPerm). Reusing buf keeps the
// per-epoch shuffle allocation-free.
func permInto(rng *rand.Rand, n int, buf []int) []int {
	if cap(buf) < n {
		buf = make([]int, n)
	}
	buf = buf[:n]
	// Mirrors rand.Perm exactly, including the i == 0 iteration whose
	// Intn(1) draw advances the rng state.
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		buf[i] = buf[j]
		buf[j] = i
	}
	return buf
}

// MinibatchesInto yields index batches of the given size in shuffled order
// (one rng.Perm-equivalent shuffle per call). The final short batch is
// included when it has at least two samples (single-sample batches break
// batch statistics); a final singleton is merged into the previous batch.
// Storage is caller-owned: the permutation is written into perm and the
// batch index slices (views into perm) into batches, both grown only when
// needed. Returns the (possibly regrown) perm and batches for the caller to
// retain; the batches are valid until the next call with the same perm.
func MinibatchesInto(n, batchSize int, rng *rand.Rand, perm []int, batches [][]int) ([]int, [][]int) {
	if batchSize <= 0 {
		batchSize = n
	}
	perm = permInto(rng, n, perm)
	batches = batches[:0]
	for start := 0; start < n; start += batchSize {
		end := start + batchSize
		if end > n {
			end = n
		}
		batches = append(batches, perm[start:end])
	}
	// Merge a final singleton into the previous batch: the batches are
	// contiguous views into perm, so extending the penultimate view covers
	// the singleton.
	if len(batches) > 1 && len(batches[len(batches)-1]) == 1 {
		prev := batches[len(batches)-2]
		batches[len(batches)-2] = perm[n-len(prev)-1 : n]
		batches = batches[:len(batches)-1]
	}
	return perm, batches
}
