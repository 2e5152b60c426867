package main

import (
	"bytes"
	"regexp"
	"strconv"
	"testing"

	"netdrift/internal/experiments"
)

// TestCountMatchesGridRep0 pins fsinspect's support to the experiment
// grid's: at each shot count, the FS count it prints is the variant-count
// arm's FS value at rep 0 of a grid with the same seed.
func TestCountMatchesGridRep0(t *testing.T) {
	const seed = 1
	shots := []int{1, 5}
	g, err := experiments.RunGrid(experiments.Config{
		Dataset: "5gc", Shots: shots, Repeats: 1, Seed: seed, Scale: experiments.QuickScale,
	}, "sensitivity")
	if err != nil {
		t.Fatal(err)
	}
	identified := regexp.MustCompile(`FS identified:\s+(\d+)`)
	for _, shot := range shots {
		var out bytes.Buffer
		args := []string{"-dataset", "5gc", "-scale", "quick", "-shots", strconv.Itoa(shot), "-seed", strconv.Itoa(seed)}
		if err := run(args, &out); err != nil {
			t.Fatal(err)
		}
		m := identified.FindStringSubmatch(out.String())
		if m == nil {
			t.Fatalf("shot %d: no FS count in output:\n%s", shot, out.String())
		}
		got, _ := strconv.Atoi(m[1])
		want := -1.0
		for _, d := range g.Draws {
			if d.Rep == 0 && d.Shot == shot && d.Column == "FS" {
				want = d.Value
			}
		}
		if float64(got) != want {
			t.Errorf("shot %d: fsinspect identified %d, the grid's rep-0 FS count is %v", shot, got, want)
		}
	}
}
