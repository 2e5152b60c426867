package nn

// SkipConcat wraps an inner layer stack and concatenates the stack's output
// with the original input: y = [inner(x), x]. A downstream dense layer can
// then model the direct (e.g. linear) dependence on x while the inner stack
// captures the nonlinear residual — which dramatically speeds up learning
// of near-linear reconstruction maps on a small step budget.
type SkipConcat struct {
	Inner Layer

	inWidth int
	out     Tensor
	gradH   Tensor
	gradIn  Tensor
}

// NewSkipConcat wraps the inner layer (often a *Network).
func NewSkipConcat(inner Layer) *SkipConcat {
	return &SkipConcat{Inner: inner}
}

// ForwardT computes [inner(x), x] in place.
func (s *SkipConcat) ForwardT(x *Tensor, train bool) *Tensor {
	s.inWidth = x.cols
	h := s.Inner.ForwardT(x, train)
	out := s.out.Reset(x.rows, h.cols+x.cols)
	for i := 0; i < x.rows; i++ {
		row := out.Row(i)
		copy(row[:h.cols], h.Row(i))
		copy(row[h.cols:], x.Row(i))
	}
	return out
}

// BackwardT splits the incoming gradient and sums the two input gradients.
func (s *SkipConcat) BackwardT(gradOut *Tensor) *Tensor {
	hWidth := gradOut.cols - s.inWidth
	gradH := s.gradH.Reset(gradOut.rows, hWidth)
	for i := 0; i < gradOut.rows; i++ {
		copy(gradH.Row(i), gradOut.Row(i)[:hWidth])
	}
	inner := s.Inner.BackwardT(gradH)
	gradIn := s.gradIn.Reset(gradOut.rows, s.inWidth)
	for i := 0; i < gradOut.rows; i++ {
		skip := gradOut.Row(i)[hWidth:]
		innerRow := inner.Row(i)
		gi := gradIn.Row(i)
		for j := 0; j < s.inWidth; j++ {
			gi[j] = innerRow[j] + skip[j]
		}
	}
	return gradIn
}

// Params returns the inner stack's parameters.
func (s *SkipConcat) Params() []*Param { return s.Inner.Params() }
