package metrics

import (
	"math"
	"testing"
)

func TestConfusionBasics(t *testing.T) {
	yTrue := []int{0, 0, 1, 1, 1, 2}
	yPred := []int{0, 1, 1, 1, 0, 2}
	c, err := NewConfusion(yTrue, yPred, 3)
	if err != nil {
		t.Fatal(err)
	}
	if c.Counts[0][0] != 1 || c.Counts[0][1] != 1 || c.Counts[1][1] != 2 ||
		c.Counts[1][0] != 1 || c.Counts[2][2] != 1 {
		t.Errorf("confusion wrong:\n%v", c)
	}
}

func TestPerClassF1KnownValues(t *testing.T) {
	// Class 0: tp=1, fp=1, fn=1 -> F1 = 2/(2+2) = 0.5
	// Class 1: tp=2, fp=1, fn=1 -> F1 = 4/(4+2) = 2/3
	// Class 2: tp=1, fp=0, fn=0 -> F1 = 1
	yTrue := []int{0, 0, 1, 1, 1, 2}
	yPred := []int{0, 1, 1, 1, 0, 2}
	c, _ := NewConfusion(yTrue, yPred, 3)
	f1 := c.PerClassF1()
	want := []float64{0.5, 2.0 / 3.0, 1.0}
	for i := range want {
		if math.Abs(f1[i]-want[i]) > 1e-12 {
			t.Errorf("F1[%d] = %v; want %v", i, f1[i], want[i])
		}
	}
	wantMacro := (0.5 + 2.0/3.0 + 1.0) / 3
	if m := c.MacroF1(); math.Abs(m-wantMacro) > 1e-12 {
		t.Errorf("MacroF1 = %v; want %v", m, wantMacro)
	}
}

func TestPerfectAndWorstF1(t *testing.T) {
	c, _ := NewConfusion([]int{0, 1, 0, 1}, []int{0, 1, 0, 1}, 2)
	if c.MacroF1() != 1 {
		t.Errorf("perfect MacroF1 = %v; want 1", c.MacroF1())
	}
	c, _ = NewConfusion([]int{0, 1, 0, 1}, []int{1, 0, 1, 0}, 2)
	if c.MacroF1() != 0 {
		t.Errorf("worst MacroF1 = %v; want 0", c.MacroF1())
	}
}

func TestAbsentClassScoresZero(t *testing.T) {
	// Class 2 never appears in truth or predictions.
	c, _ := NewConfusion([]int{0, 1}, []int{0, 1}, 3)
	f1 := c.PerClassF1()
	if f1[2] != 0 {
		t.Errorf("absent class F1 = %v; want 0", f1[2])
	}
}

func TestConfusionErrors(t *testing.T) {
	if _, err := NewConfusion([]int{0}, []int{0, 1}, 2); err == nil {
		t.Error("expected length mismatch error")
	}
	if _, err := NewConfusion([]int{0}, []int{5}, 2); err == nil {
		t.Error("expected out-of-range error")
	}
	if _, err := NewConfusion([]int{-1}, []int{0}, 2); err == nil {
		t.Error("expected negative label error")
	}
	if _, err := NewConfusion([]int{0}, []int{0}, 1); err == nil {
		t.Error("expected numClasses error")
	}
}

func TestMacroF1Score(t *testing.T) {
	s, err := MacroF1Score([]int{0, 1, 0, 1}, []int{0, 1, 0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s != 100 {
		t.Errorf("MacroF1Score = %v; want 100", s)
	}
}

// TestArgmax pins the class decision, the first index on ties included.
func TestArgmax(t *testing.T) {
	for _, c := range []struct {
		row  []float64
		want int
	}{
		{[]float64{0.1, 0.7, 0.2}, 1},
		{[]float64{0.9, 0.05, 0.05}, 0},
		{[]float64{0.4, 0.4, 0.2}, 0},
		{[]float64{0.2, 0.4, 0.4}, 1},
		{[]float64{-1, -1}, 0},
		{[]float64{3}, 0},
	} {
		if got := Argmax(c.row); got != c.want {
			t.Errorf("Argmax(%v) = %d; want %d", c.row, got, c.want)
		}
	}
}
