package nn

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestForwardResumeGolden pins ForwardKeep and ForwardResume against the
// plain ForwardT at every vector width the host has: on Dense layers shaped
// like the GAN's first layers (419×256 generator, 458×256 discriminator)
// and its 52-column head, at prefix widths from none to all of the input,
// over batches of 1 to 64 rows, the kept pass and every resumed pass must
// equal ForwardT bit for bit. The two passes share the prefix columns,
// which hold zeros of both signs; the suffix columns hold zeros, NaN and
// ±Inf too. The same holds through the containers that reach a first
// Dense: a generator-shaped net (SkipConcat over batch norm) and a
// discriminator-shaped one (dropout, single-output head).
func TestForwardResumeGolden(t *testing.T) {
	forEachWidth(t, true, func(w string) {
		for _, shape := range [][2]int{{419, 256}, {458, 256}, {419, 52}} {
			in, out := shape[0], shape[1]
			d := NewDense(in, out, rand.New(rand.NewSource(int64(in+out))))
			for _, k := range []int{0, 1, 63, 64, 390, in - 1, in} {
				for _, rows := range []int{1, 6, 7, 13, 64} {
					name := fmt.Sprintf("%s dense %dx%d k=%d rows=%d", w, in, out, k, rows)
					x1, x2 := prefixPair(rand.New(rand.NewSource(int64(100*k+rows))), rows, in, k)
					checkKeepResume(t, name, d, d, x1, x2, k)
				}
			}
		}
		nets := []struct {
			name  string
			in, k int
			build func(rng *rand.Rand) Layer
		}{
			{"generator network", 41, 30, func(rng *rand.Rand) Layer {
				trunk := NewNetwork(NewDense(41, 24, rng), NewBatchNorm(24), NewReLU())
				return NewNetwork(NewSkipConcat(trunk), NewDense(24+41, 6, rng), NewTanh())
			}},
			{"discriminator network", 46, 30, func(rng *rand.Rand) Layer {
				return NewNetwork(
					NewDense(46, 24, rng), NewLeakyReLU(0.2), NewDropout(0.3, rng),
					NewDense(24, 1, rng),
				)
			}},
			{"single-output dense", 46, 30, func(rng *rand.Rand) Layer { return NewDense(46, 1, rng) }},
		}
		for _, c := range nets {
			// Two identically seeded copies: dropout draws the same masks
			// in both, so the plain copy is the reference for the other.
			plain, split := c.build(rand.New(rand.NewSource(5))), c.build(rand.New(rand.NewSource(5)))
			x1, x2 := prefixPair(rand.New(rand.NewSource(6)), 13, c.in, c.k)
			checkKeepResume(t, w+" "+c.name, plain, split, x1, x2, c.k)
		}
	})
	t.Run("stale prefix panics", testStalePrefixPanics)
}

// checkKeepResume runs plain's ForwardT on x1 then twice on x2, and split's
// ForwardKeep on x1 then ForwardResume twice on x2, failing on any output
// bit that differs.
func checkKeepResume(t *testing.T, name string, plain, split Layer, x1, x2 *Tensor, k int) {
	t.Helper()
	want := append([]float64(nil), plain.ForwardT(x1, true).Data()...)
	if got := ForwardKeep(split, x1, true, k); !sameFloats(got.Data(), want) {
		t.Fatalf("%s: kept forward differs from ForwardT", name)
	}
	for pass := 0; pass < 2; pass++ {
		want = append(want[:0], plain.ForwardT(x2, true).Data()...)
		if got := ForwardResume(split, x2, true, k); !sameFloats(got.Data(), want) {
			t.Fatalf("%s: resumed forward %d differs from ForwardT", name, pass)
		}
	}
}

// prefixPair returns two inputs whose columns [0, k) are equal, mostly
// signed zeros, and whose other columns are drawn separately from
// specialRows.
func prefixPair(rng *rand.Rand, rows, in, k int) (*Tensor, *Tensor) {
	x1, x2 := NewTensor(rows, in), NewTensor(rows, in)
	s1, s2 := specialRows(rng, rows, in-k), specialRows(rng, rows, in-k)
	for i := 0; i < rows; i++ {
		for j := 0; j < k; j++ {
			var v float64
			switch rng.Intn(3) {
			case 0:
				v = math.Copysign(0, -1)
			case 1:
				v = rng.NormFloat64()
			}
			x1.Set(i, j, v)
			x2.Set(i, j, v)
		}
		copy(x1.Row(i)[k:], s1[i])
		copy(x2.Row(i)[k:], s2[i])
	}
	return x1, x2
}

// testStalePrefixPanics pins the stale-prefix guard: a resume with
// no keep, at another prefix width, on another row count, on other prefix
// columns, or after a weight update (an Adam step, on a shard replica too,
// or a snapshot restore) panics instead of using the kept partials; so does
// a keep on a net whose first layer is not a Dense.
func testStalePrefixPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x7, x7b := prefixPair(rng, 7, 20, 12)
	x6, _ := prefixPair(rng, 6, 20, 12)
	fresh := func() *Dense { return NewDense(20, 9, rand.New(rand.NewSource(9))) }
	kept := func() *Dense {
		d := fresh()
		ForwardKeep(d, x7, true, 12)
		return d
	}
	cases := []struct {
		name, why string
		run       func()
	}{
		{"no keep", "without a keep", func() { ForwardResume(fresh(), x7, true, 12) }},
		{"other width", "at 11 columns, kept 12", func() { ForwardResume(kept(), x7b, true, 11) }},
		{"other rows", "on 6 rows, kept 7", func() { ForwardResume(kept(), x6, true, 12) }},
		{"other prefix", "different input (row 3, column 11)", func() {
			d := kept()
			x := NewTensor(7, 20).SetFromRows(x7b.ToRows())
			x.Set(3, 11, 1)
			ForwardResume(d, x, true, 12)
		}},
		{"Adam step", "weight update", func() {
			d := kept()
			NewAdam(1e-3, 0).Step(d.Params())
			ForwardResume(d, x7b, true, 12)
		}},
		{"Adam step on the canonical net", "weight update", func() {
			sn := NewSharded(NewNetwork(fresh(), NewReLU()), 2)
			ForwardKeep(sn.Net(1), x7, true, 12)
			NewAdam(1e-3, 0).Step(sn.Params(0))
			ForwardResume(sn.Net(1), x7b, true, 12)
		}},
		{"snapshot restore", "weight update", func() {
			d := kept()
			if err := RestoreSnapshot(d, TakeSnapshot(d)); err != nil {
				t.Fatal(err)
			}
			ForwardResume(d, x7b, true, 12)
		}},
		{"no first dense", "no first Dense", func() { ForwardKeep(NewNetwork(NewReLU(), fresh()), x7, true, 12) }},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, c.why) {
					t.Errorf("%s: panic %q, want one about %q", c.name, msg, c.why)
				}
			}()
			c.run()
		}()
	}
	// The guard passes a valid resume.
	ForwardResume(kept(), x7b, true, 12)
}
