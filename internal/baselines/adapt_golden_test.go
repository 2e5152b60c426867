package baselines

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"netdrift/internal/dataset"
	"netdrift/internal/mat"
	"netdrift/internal/nn"
)

// CORAL's and CMT's Adapt as they ran before their dense algebra moved
// onto nn.Axpy: the scalar covariance, elimination and matrix-vector
// loops, one At/Set per element, kept as the reference their TrainX must
// match bit for bit. Every product that feeds an add is wrapped in
// float64(...) so the reference cannot fuse on arm64 either.

func refCovariance(x [][]float64) *mat.Matrix {
	n, d := len(x), len(x[0])
	means := make([]float64, d)
	for _, row := range x {
		for j, v := range row {
			means[j] += v
		}
	}
	for j := range means {
		means[j] /= float64(n)
	}
	cov := mat.New(d, d)
	for _, row := range x {
		for a := 0; a < d; a++ {
			da := row[a] - means[a]
			if da == 0 {
				continue
			}
			for b := a; b < d; b++ {
				cov.Set(a, b, cov.At(a, b)+float64(da*(row[b]-means[b])))
			}
		}
	}
	norm := 1.0 / float64(n-1)
	for a := 0; a < d; a++ {
		for b := a; b < d; b++ {
			v := cov.At(a, b) * norm
			cov.Set(a, b, v)
			cov.Set(b, a, v)
		}
	}
	return cov
}

func refShrunkCovariance(x [][]float64, lambda float64) *mat.Matrix {
	out := mat.Scale(1-lambda, refCovariance(x))
	for i := 0; i < out.Rows(); i++ {
		out.Set(i, i, out.At(i, i)+lambda)
	}
	return out
}

func refSolve(t *testing.T, a, b *mat.Matrix) *mat.Matrix {
	t.Helper()
	n, m := a.Rows(), b.Cols()
	aw, bw := mat.Scale(1, a), mat.Scale(1, b)
	swap := func(w *mat.Matrix, i, j int) {
		for c := 0; c < w.Cols(); c++ {
			vi, vj := w.At(i, c), w.At(j, c)
			w.Set(i, c, vj)
			w.Set(j, c, vi)
		}
	}
	for col := 0; col < n; col++ {
		pivot, maxAbs := col, math.Abs(aw.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(aw.At(r, col)); v > maxAbs {
				maxAbs, pivot = v, r
			}
		}
		if maxAbs < 1e-12 {
			t.Fatalf("reference solve: singular at pivot %d", col)
		}
		if pivot != col {
			swap(aw, pivot, col)
			swap(bw, pivot, col)
		}
		pivVal := aw.At(col, col)
		for r := col + 1; r < n; r++ {
			factor := aw.At(r, col) / pivVal
			if factor == 0 {
				continue
			}
			for c := col; c < n; c++ {
				aw.Set(r, c, aw.At(r, c)-float64(factor*aw.At(col, c)))
			}
			for c := 0; c < m; c++ {
				bw.Set(r, c, bw.At(r, c)-float64(factor*bw.At(col, c)))
			}
		}
	}
	x := mat.New(n, m)
	for c := 0; c < m; c++ {
		for r := n - 1; r >= 0; r-- {
			s := bw.At(r, c)
			for k := r + 1; k < n; k++ {
				s -= float64(aw.At(r, k) * x.At(k, c))
			}
			x.Set(r, c, s/aw.At(r, r))
		}
	}
	return x
}

func refMulVec(a *mat.Matrix, x []float64) []float64 {
	out := make([]float64, a.Rows())
	for i := range out {
		var s float64
		for j, v := range x {
			s += float64(a.At(i, j) * v)
		}
		out[i] = s
	}
	return out
}

func refCORALTrainX(t *testing.T, source, support *dataset.Dataset) [][]float64 {
	scaled, err := zScale(source.X, source.X, support.X)
	if err != nil {
		t.Fatal(err)
	}
	srcX, supX := scaled[0], scaled[1]
	d := source.NumFeatures()
	shrink := math.Min(float64(d)/float64(d+len(supX)), 0.95)
	ls, err := mat.Cholesky(refShrunkCovariance(srcX, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	lt, err := mat.Cholesky(refShrunkCovariance(supX, shrink))
	if err != nil {
		t.Fatal(err)
	}
	a := refSolve(t, ls.T(), lt.T())
	out := make([][]float64, 0, len(srcX)+len(supX))
	for _, row := range srcX {
		o := make([]float64, d)
		for k, v := range row {
			if v == 0 {
				continue
			}
			for j := range o {
				o[j] += float64(v * a.At(k, j))
			}
		}
		out = append(out, o)
	}
	return append(out, supX...)
}

func refCMTTrainX(t *testing.T, m CMT, source, support *dataset.Dataset) [][]float64 {
	scaled, err := zScale(source.X, source.X, support.X)
	if err != nil {
		t.Fatal(err)
	}
	srcX, supX := scaled[0], scaled[1]
	l, err := mat.Cholesky(refShrunkCovariance(srcX, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	d := l.Rows()
	id := mat.New(d, d)
	for i := 0; i < d; i++ {
		id.Set(i, i, 1)
	}
	linv := refSolve(t, l, id)
	byClass := make(map[int][][]float64)
	for i, row := range supX {
		byClass[support.Y[i]] = append(byClass[support.Y[i]], refMulVec(linv, row))
	}
	rng := rand.New(rand.NewSource(m.Seed))
	out := append([][]float64{}, srcX...)
	classes := make([]int, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Ints(classes)
	for _, c := range classes {
		comps := byClass[c]
		for _, e := range comps {
			out = append(out, refMulVec(l, e))
		}
		for a := 0; a < cmtAugPerClass; a++ {
			e := make([]float64, d)
			for j := 0; j < d; j++ {
				src := comps[rng.Intn(len(comps))]
				e[j] = src[j] + cmtJitter*rng.NormFloat64()
			}
			out = append(out, refMulVec(l, e))
		}
	}
	return out
}

// quick5GC is the quick-scale 5GC pair Table I draws from (320 source
// rows, 442 features, 16 classes) with a shots-per-class support draw.
func quick5GC(tb testing.TB, shots int) (source, support, test *dataset.Dataset) {
	d, err := dataset.Synthetic5GC(dataset.FiveGCConfig{
		Seed: 1, SourceSamples: 320, TargetTrainPool: 96, TargetTestSamples: 160,
	})
	if err != nil {
		tb.Fatal(err)
	}
	sup, _, err := d.TargetTrain.FewShot(shots, false, rand.New(rand.NewSource(2)))
	if err != nil {
		tb.Fatal(err)
	}
	return d.Source, sup, d.TargetTest
}

func requireRowBits(t *testing.T, name string, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", name, len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: row %d has %d values, want %d", name, i, len(got[i]), len(want[i]))
		}
		for j := range got[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("%s: row %d col %d = %v, want %v", name, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestAgnosticAdaptAxpyGolden compares CORAL's and CMT's Adapted.TrainX,
// by Float64bits, with the scalar reference above at every kernel width:
// on the quick 5GC shape at 1 and 10 shots, and on a small 3-class problem.
func TestAgnosticAdaptAxpyGolden(t *testing.T) {
	type problem struct {
		name                  string
		source, support, test *dataset.Dataset
	}
	var problems []problem
	for _, shots := range []int{1, 10} {
		src, sup, tst := quick5GC(t, shots)
		problems = append(problems, problem{fmt.Sprintf("5gc-%dshot", shots), src, sup, tst})
	}
	problems = append(problems, problem{"small", driftProblem(200, false, 21),
		driftProblem(12, true, 22), driftProblem(30, true, 23)})
	for _, p := range problems {
		coralWant := refCORALTrainX(t, p.source, p.support)
		cmtWant := refCMTTrainX(t, CMT{Seed: 4}, p.source, p.support)
		for _, w := range nn.KernelWidths() {
			t.Run(p.name+"/"+w, func(t *testing.T) {
				defer nn.SetKernelWidth(nn.SetKernelWidth(w))
				coral, err := CORAL{}.Adapt(p.source, p.support, p.test)
				if err != nil {
					t.Fatal(err)
				}
				requireRowBits(t, "CORAL", coral.TrainX, coralWant)
				cmt, err := CMT{Seed: 4}.Adapt(p.source, p.support, p.test)
				if err != nil {
					t.Fatal(err)
				}
				requireRowBits(t, "CMT", cmt.TrainX, cmtWant)
			})
		}
	}
}

// BenchmarkAgnosticAdapt times CMT's and CORAL's Adapt on the quick 5GC
// shape (320 source rows, 442 features) with a 10-shot support draw:
//
//	go test -run '^$' -bench AgnosticAdapt ./internal/baselines
func BenchmarkAgnosticAdapt(b *testing.B) {
	src, sup, tst := quick5GC(b, 10)
	for _, m := range []AgnosticMethod{CMT{Seed: 4}, CORAL{}} {
		b.Run(m.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.Adapt(src, sup, tst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
