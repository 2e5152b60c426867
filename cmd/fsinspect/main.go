// Command fsinspect runs the FS causal feature separation on a synthetic
// drifted dataset and reports the identified domain-variant features
// against the generator's ground-truth intervention targets:
//
//	fsinspect -dataset 5gc -shots 5
//
// The support is the draw of the experiment grid's rep 0 at that shot count
// and seed, so the count it prints is the variant-count arm's FS value there.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"netdrift/internal/causal"
	"netdrift/internal/core"
	"netdrift/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fsinspect:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fl := flag.NewFlagSet("fsinspect", flag.ExitOnError)
	var (
		ds    = fl.String("dataset", "5gc", "dataset: 5gc|5gipc")
		scale = fl.String("scale", "bench", "compute scale: quick|bench|full")
		shots = fl.Int("shots", 5, "target training samples per class")
		seed  = fl.Int64("seed", 1, "RNG seed")
		alpha = fl.Float64("alpha", 0.01, "CI-test significance level")
	)
	fl.Parse(args)

	sc, ok := experiments.ScaleByName(*scale)
	if !ok {
		return fmt.Errorf("unknown scale %q", *scale)
	}
	pair, err := experiments.MakePair(*ds, sc, *seed)
	if err != nil {
		return err
	}
	truth, names := pair.TrueVariant, pair.Source.FeatureNames
	support, err := pair.SupportDraw(*seed, 0, *shots)
	if err != nil {
		return err
	}

	sep := core.NewFeatureSeparator(causal.FNodeConfig{Alpha: *alpha})
	if err := sep.Fit(pair.Source.X, support.X); err != nil {
		return err
	}
	variant := sep.Variant()

	isTrue := make(map[int]bool, len(truth))
	for _, v := range truth {
		isTrue[v] = true
	}
	var tp int
	for _, v := range variant {
		if isTrue[v] {
			tp++
		}
	}
	found := make(map[int]bool, len(variant))
	for _, v := range variant {
		found[v] = true
	}
	var missed []int
	for _, v := range truth {
		if !found[v] {
			missed = append(missed, v)
		}
	}
	sort.Ints(missed)

	fmt.Fprintf(w, "dataset=%s shots=%d source=%d support=%d features=%d\n",
		*ds, *shots, pair.Source.NumSamples(), support.NumSamples(), pair.Source.NumFeatures())
	fmt.Fprintf(w, "ground-truth variant features: %d\n", len(truth))
	fmt.Fprintf(w, "FS identified:                 %d\n", len(variant))
	recall := 0.0
	if len(truth) > 0 {
		recall = float64(tp) / float64(len(truth))
	}
	precision := 0.0
	if len(variant) > 0 {
		precision = float64(tp) / float64(len(variant))
	}
	fmt.Fprintf(w, "recall=%.2f precision=%.2f\n\n", recall, precision)

	fmt.Fprintln(w, "identified variant features:")
	for _, v := range variant {
		mark := " "
		if !isTrue[v] {
			mark = "✗ (false positive)"
		}
		fmt.Fprintf(w, "  %4d %-24s %s\n", v, names[v], mark)
	}
	if len(missed) > 0 {
		fmt.Fprintln(w, "\nmissed intervention targets (need more target samples):")
		for _, v := range missed {
			fmt.Fprintf(w, "  %4d %s\n", v, names[v])
		}
	}
	return nil
}
