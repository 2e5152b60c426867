// Package metrics implements classification evaluation metrics: confusion
// matrices, accuracy, and the macro-averaged F1 score the paper reports.
package metrics

import (
	"fmt"
	"strings"
)

// Confusion is a square confusion matrix: Counts[actual][predicted].
type Confusion struct {
	Counts [][]int
}

// NewConfusion tallies predictions against ground truth over numClasses.
func NewConfusion(yTrue, yPred []int, numClasses int) (*Confusion, error) {
	if len(yTrue) != len(yPred) {
		return nil, fmt.Errorf("metrics: %d truths vs %d predictions", len(yTrue), len(yPred))
	}
	if numClasses < 2 {
		return nil, fmt.Errorf("metrics: numClasses %d must be >= 2", numClasses)
	}
	c := &Confusion{Counts: make([][]int, numClasses)}
	for i := range c.Counts {
		c.Counts[i] = make([]int, numClasses)
	}
	for i := range yTrue {
		if yTrue[i] < 0 || yTrue[i] >= numClasses {
			return nil, fmt.Errorf("metrics: true label %d out of range", yTrue[i])
		}
		if yPred[i] < 0 || yPred[i] >= numClasses {
			return nil, fmt.Errorf("metrics: predicted label %d out of range", yPred[i])
		}
		c.Counts[yTrue[i]][yPred[i]]++
	}
	return c, nil
}

// PerClassF1 returns each class's F1 score. Classes absent from both the
// truth and the predictions score zero.
func (c *Confusion) PerClassF1() []float64 {
	k := len(c.Counts)
	out := make([]float64, k)
	for cls := 0; cls < k; cls++ {
		var tp, fp, fn int
		for j := 0; j < k; j++ {
			if j == cls {
				tp = c.Counts[cls][cls]
				continue
			}
			fn += c.Counts[cls][j]
			fp += c.Counts[j][cls]
		}
		denom := 2*tp + fp + fn
		if denom == 0 {
			continue
		}
		out[cls] = 2 * float64(tp) / float64(denom)
	}
	return out
}

// MacroF1 returns the unweighted mean of per-class F1 scores, the metric
// reported throughout the paper's evaluation.
func (c *Confusion) MacroF1() float64 {
	f1s := c.PerClassF1()
	var s float64
	for _, v := range f1s {
		s += v
	}
	return s / float64(len(f1s))
}

// String renders the matrix compactly for logs.
func (c *Confusion) String() string {
	var sb strings.Builder
	for _, row := range c.Counts {
		for j, v := range row {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%4d", v)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// MacroF1Score is a convenience wrapper: confusion + macro F1 in one call,
// returning the score scaled to [0, 100] as the paper reports it.
func MacroF1Score(yTrue, yPred []int, numClasses int) (float64, error) {
	c, err := NewConfusion(yTrue, yPred, numClasses)
	if err != nil {
		return 0, err
	}
	return 100 * c.MacroF1(), nil
}

// Argmax returns the index of row's largest value, the first one on ties:
// the class decision of every classifier and baseline.
func Argmax(row []float64) int {
	best := 0
	for j, v := range row {
		if v > row[best] {
			best = j
		}
	}
	return best
}
