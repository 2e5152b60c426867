package nn

import (
	"fmt"
	"math"
)

// SoftmaxCET is the softmax cross-entropy on the flat path: the mean loss
// of the logits against integer labels, with the gradient w.r.t. the
// logits written into grad (reshaped to match logits).
func SoftmaxCET(logits *Tensor, y []int, grad *Tensor) (float64, error) {
	if logits.rows != len(y) {
		return 0, fmt.Errorf("nn: %d logit rows for %d labels", logits.rows, len(y))
	}
	if logits.rows == 0 {
		return 0, fmt.Errorf("nn: empty batch")
	}
	n := float64(len(y))
	grad.Reset(logits.rows, logits.cols)
	var loss float64
	for i, c := range y {
		if c < 0 || c >= logits.cols {
			return 0, fmt.Errorf("nn: label %d out of range [0,%d)", c, logits.cols)
		}
		g := grad.Row(i)
		SoftmaxInto(g, logits.Row(i))
		loss += -math.Log(math.Max(g[c], 1e-12))
		for j := range g {
			g[j] /= n
		}
		g[c] -= 1 / n
	}
	return loss / n, nil
}

// Softmax returns the softmax of one logit row (numerically stabilized).
func Softmax(row []float64) []float64 {
	out := make([]float64, len(row))
	SoftmaxInto(out, row)
	return out
}

// SoftmaxInto writes the softmax of row into dst (len(dst) must equal
// len(row); dst may alias row). Same arithmetic as Softmax, allocation
// free for serving hot paths.
func SoftmaxInto(dst, row []float64) {
	maxV := row[0]
	for _, v := range row[1:] {
		if v > maxV {
			maxV = v
		}
	}
	var sum float64
	for j, v := range row {
		e := math.Exp(v - maxV)
		dst[j] = e
		sum += e
	}
	for j := range dst {
		dst[j] /= sum
	}
}

// BCEWithLogits computes the mean binary cross-entropy between single-logit
// rows and targets in {0,1} (or soft targets in [0,1]), with the gradient
// w.r.t. the logits. Each logits row must have exactly one element.
func BCEWithLogits(logits [][]float64, targets []float64) (float64, [][]float64, error) {
	if len(logits) != len(targets) {
		return 0, nil, fmt.Errorf("nn: %d logit rows for %d targets", len(logits), len(targets))
	}
	if len(logits) == 0 {
		return 0, nil, fmt.Errorf("nn: empty batch")
	}
	n := float64(len(logits))
	grad := make([][]float64, len(logits))
	var loss float64
	for i, row := range logits {
		if len(row) != 1 {
			return 0, nil, fmt.Errorf("nn: BCE logit row %d has %d values, want 1", i, len(row))
		}
		z := row[0]
		t := targets[i]
		// Stable: log(1+exp(-|z|)) + max(z,0) - z·t
		loss += math.Max(z, 0) - z*t + math.Log1p(math.Exp(-math.Abs(z)))
		sig := 1 / (1 + math.Exp(-z))
		grad[i] = []float64{(sig - t) / n}
	}
	return loss / n, grad, nil
}

// BCEWithLogitsT is BCEWithLogits on the flat path: the gradient is written
// into grad (reshaped to match logits) instead of freshly allocated. The
// arithmetic — including the per-row accumulation order — matches
// BCEWithLogits exactly.
func BCEWithLogitsT(logits *Tensor, targets []float64, grad *Tensor) (float64, error) {
	if logits.rows != len(targets) {
		return 0, fmt.Errorf("nn: %d logit rows for %d targets", logits.rows, len(targets))
	}
	if logits.rows == 0 {
		return 0, fmt.Errorf("nn: empty batch")
	}
	if logits.cols != 1 {
		return 0, fmt.Errorf("nn: BCE logit rows have %d values, want 1", logits.cols)
	}
	n := float64(logits.rows)
	grad.Reset(logits.rows, 1)
	var loss float64
	for i := 0; i < logits.rows; i++ {
		z := logits.data[i]
		t := targets[i]
		loss += math.Max(z, 0) - z*t + math.Log1p(math.Exp(-math.Abs(z)))
		sig := 1 / (1 + math.Exp(-z))
		grad.data[i] = (sig - t) / n
	}
	return loss / n, nil
}

// MSET is MSE on the flat path: the gradient is written into grad (reshaped
// to match pred) instead of freshly allocated. Same two-pass arithmetic as
// MSE, bit for bit.
func MSET(pred, target *Tensor, grad *Tensor) (float64, error) {
	if pred.rows != target.rows {
		return 0, fmt.Errorf("nn: %d predictions for %d targets", pred.rows, target.rows)
	}
	if pred.rows == 0 {
		return 0, fmt.Errorf("nn: empty batch")
	}
	if pred.cols != target.cols {
		return 0, fmt.Errorf("nn: width mismatch %d vs %d", pred.cols, target.cols)
	}
	var loss float64
	var count float64
	grad.Reset(pred.rows, pred.cols)
	for i, v := range pred.data {
		d := v - target.data[i]
		loss += d * d
		grad.data[i] = 2 * d
		count++
	}
	for i := range grad.data {
		grad.data[i] /= count
	}
	return loss / count, nil
}

// BCEWithLogitsTN is the sharded-trainer form of BCEWithLogitsT: the
// gradient is normalized by the caller's total (the FULL-batch row count,
// not this shard's), and the returned loss is the raw, unnormalized sum of
// the per-row loss terms, reduced with the fixed 4-lane vsum scheme.
// Callers accumulate shard partials in shard-index order and divide by the
// total once, which keeps the epoch loss independent of the worker count.
// terms is caller scratch with len ≥ logits rows (per-row loss terms land
// there before reduction so the function stays allocation free).
func BCEWithLogitsTN(logits *Tensor, targets []float64, grad *Tensor, terms []float64, total float64) (float64, error) {
	if logits.rows != len(targets) {
		return 0, fmt.Errorf("nn: %d logit rows for %d targets", logits.rows, len(targets))
	}
	if logits.rows == 0 {
		return 0, fmt.Errorf("nn: empty batch")
	}
	if logits.cols != 1 {
		return 0, fmt.Errorf("nn: BCE logit rows have %d values, want 1", logits.cols)
	}
	grad.Reset(logits.rows, 1)
	terms = terms[:logits.rows]
	for i := 0; i < logits.rows; i++ {
		z := logits.data[i]
		t := targets[i]
		terms[i] = math.Max(z, 0) - z*t + math.Log1p(math.Exp(-math.Abs(z)))
		sig := 1 / (1 + math.Exp(-z))
		grad.data[i] = (sig - t) / total
	}
	return vsum(terms), nil
}

// MSETN is the sharded-trainer form of MSET: the gradient is normalized by
// the caller's total (the FULL-batch element count), and the returned loss
// is the raw 4-lane sum of squared differences. See BCEWithLogitsTN for the
// accumulation contract.
func MSETN(pred, target, grad *Tensor, total float64) (float64, error) {
	if pred.rows != target.rows {
		return 0, fmt.Errorf("nn: %d predictions for %d targets", pred.rows, target.rows)
	}
	if pred.rows == 0 {
		return 0, fmt.Errorf("nn: empty batch")
	}
	if pred.cols != target.cols {
		return 0, fmt.Errorf("nn: width mismatch %d vs %d", pred.cols, target.cols)
	}
	grad.Reset(pred.rows, pred.cols)
	loss := vmse(grad.data, pred.data, target.data)
	vdivs(grad.data, total)
	return loss, nil
}

// MSE computes the mean squared error between prediction and target
// batches, with gradient w.r.t. the predictions.
func MSE(pred, target [][]float64) (float64, [][]float64, error) {
	if len(pred) != len(target) {
		return 0, nil, fmt.Errorf("nn: %d predictions for %d targets", len(pred), len(target))
	}
	if len(pred) == 0 {
		return 0, nil, fmt.Errorf("nn: empty batch")
	}
	var loss float64
	var count float64
	grad := make([][]float64, len(pred))
	for i := range pred {
		if len(pred[i]) != len(target[i]) {
			return 0, nil, fmt.Errorf("nn: row %d width mismatch %d vs %d", i, len(pred[i]), len(target[i]))
		}
		g := make([]float64, len(pred[i]))
		for j := range pred[i] {
			d := pred[i][j] - target[i][j]
			loss += d * d
			g[j] = 2 * d
			count++
		}
		grad[i] = g
	}
	for i := range grad {
		for j := range grad[i] {
			grad[i][j] /= count
		}
	}
	return loss / count, grad, nil
}

// SupConLoss is the supervised contrastive loss of Khosla et al., used by
// the SCL baseline. Embeddings are L2-normalized internally; the returned
// gradient is w.r.t. the raw (unnormalized) embeddings. Anchors without any
// positive pair contribute zero loss.
func SupConLoss(emb [][]float64, y []int, temp float64) (float64, [][]float64, error) {
	n := len(emb)
	if n != len(y) {
		return 0, nil, fmt.Errorf("nn: %d embeddings for %d labels", n, len(y))
	}
	if n < 2 {
		return 0, nil, fmt.Errorf("nn: supcon needs >= 2 samples")
	}
	if temp <= 0 {
		return 0, nil, fmt.Errorf("nn: supcon temperature %v must be positive", temp)
	}
	d := len(emb[0])

	// Normalize and remember norms for the chain rule.
	z := make([][]float64, n)
	norms := make([]float64, n)
	for i, row := range emb {
		var s float64
		for _, v := range row {
			s += v * v
		}
		norms[i] = math.Sqrt(s) + 1e-12
		zr := make([]float64, d)
		for j, v := range row {
			zr[j] = v / norms[i]
		}
		z[i] = zr
	}

	// Pairwise similarities / temperature.
	sim := make([][]float64, n)
	for i := range sim {
		sim[i] = make([]float64, n)
		for j := range sim[i] {
			if i == j {
				continue
			}
			var s float64
			for k := 0; k < d; k++ {
				s += z[i][k] * z[j][k]
			}
			sim[i][j] = s / temp
		}
	}

	gradZ := make([][]float64, n)
	for i := range gradZ {
		gradZ[i] = make([]float64, d)
	}
	var loss float64
	var anchors float64
	for i := 0; i < n; i++ {
		var positives []int
		for j := 0; j < n; j++ {
			if j != i && y[j] == y[i] {
				positives = append(positives, j)
			}
		}
		if len(positives) == 0 {
			continue
		}
		anchors++
		// log-sum-exp over all a != i.
		maxSim := math.Inf(-1)
		for a := 0; a < n; a++ {
			if a != i && sim[i][a] > maxSim {
				maxSim = sim[i][a]
			}
		}
		var denom float64
		for a := 0; a < n; a++ {
			if a != i {
				denom += math.Exp(sim[i][a] - maxSim)
			}
		}
		logDenom := maxSim + math.Log(denom)
		pInv := 1 / float64(len(positives))
		for _, p := range positives {
			loss += -(sim[i][p] - logDenom) * pInv
		}
		// Gradient w.r.t. sim[i][a]: softmax weights minus positive mass.
		for a := 0; a < n; a++ {
			if a == i {
				continue
			}
			soft := math.Exp(sim[i][a] - logDenom)
			coeff := soft // from the log-denominator, per positive term
			isPos := 0.0
			if y[a] == y[i] {
				isPos = 1.0
			}
			gSim := coeff - isPos*pInv // summed over positives: |P|·pInv·soft - [a∈P]·pInv
			gSim *= 1                  // loss is summed over positives with weight pInv; handled above
			// Chain into z_i and z_a through sim = z_i·z_a/temp.
			for k := 0; k < d; k++ {
				gradZ[i][k] += gSim * z[a][k] / temp
				gradZ[a][k] += gSim * z[i][k] / temp
			}
		}
	}
	if anchors == 0 {
		zeroG := make([][]float64, n)
		for i := range zeroG {
			zeroG[i] = make([]float64, d)
		}
		return 0, zeroG, nil
	}
	loss /= anchors
	// Backprop through the L2 normalization: for e = raw, z = e/|e|,
	// dL/de = (I - z zᵀ)/|e| · dL/dz, then scale by 1/anchors.
	gradE := make([][]float64, n)
	for i := 0; i < n; i++ {
		var dot float64
		for k := 0; k < d; k++ {
			dot += gradZ[i][k] * z[i][k]
		}
		ge := make([]float64, d)
		for k := 0; k < d; k++ {
			ge[k] = (gradZ[i][k] - dot*z[i][k]) / norms[i] / anchors
		}
		gradE[i] = ge
	}
	return loss, gradE, nil
}
