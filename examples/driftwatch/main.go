// Drift watch: the operational loop the paper sketches in §VI-D, run by
// the drift controller (internal/ctrl). The deployed classifier never
// retrains; the controller watches incoming telemetry windows, refits the
// FS+GAN adapter only when the distribution departs from the source
// domain, and hot-swaps the refit in only if it beats the serving adapter
// on a labelled probe set.
//
// Run with:
//
//	go run ./examples/driftwatch
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"netdrift/internal/core"
	"netdrift/internal/ctrl"
	"netdrift/internal/dataset"
	"netdrift/internal/models"
	"netdrift/internal/monitor"
	"netdrift/internal/serve"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fmt.Println("generating telemetry: a stable period followed by a drift ...")
	d, err := dataset.Synthetic5GIPC(dataset.FiveGIPCConfig{
		Seed:         17,
		SourceNormal: 1200, SourceFaults: [4]int{50, 80, 200, 150},
		TargetNormal: 500, TargetFaults: [4]int{30, 40, 80, 100},
		TargetTrainPerGroup: 12,
	})
	if err != nil {
		return err
	}

	// The serving bundle: an adapter fitted on source shots only, so it
	// has never seen the drift, and the fault detector, trained once on
	// source data and never again.
	bootSupport, _, err := d.Source.FewShot(2, true, rand.New(rand.NewSource(18)))
	if err != nil {
		return err
	}
	incumbent := core.NewAdapter(core.AdapterConfig{
		Mode: core.ModeFSRecon, Recon: core.ReconGAN,
		GAN: core.GANConfig{Epochs: 1}, Seed: 18,
	})
	if err := incumbent.Fit(d.Source, bootSupport); err != nil {
		return err
	}
	train, err := incumbent.TrainingData(d.Source)
	if err != nil {
		return err
	}
	clf := models.NewMLPClassifier(models.Options{Seed: 18, Epochs: 20})
	if err := clf.Fit(train.X, train.Y, 2); err != nil {
		return err
	}
	reg := serve.NewRegistry(nil)
	reg.Swap(&serve.Bundle{ID: "source", Adapter: incumbent, Classifier: clf})

	det := monitor.New(monitor.Config{})
	if err := det.Fit(d.Source.X); err != nil {
		return err
	}
	bundles, err := os.MkdirTemp("", "driftwatch")
	if err != nil {
		return err
	}
	defer os.RemoveAll(bundles)

	// Week 4's drifted rows come from the target test split; the rest of
	// it is the labelled probe the gate scores both adapters on.
	test := d.Targets[0].Test.Shuffle(rand.New(rand.NewSource(19)))
	probe := &dataset.Dataset{X: test.X[250:], Y: test.Y[250:]}
	done := make(chan ctrl.Event, 1)
	c, err := ctrl.New(ctrl.Config{
		Detector: det, Registry: reg, Probe: probe, NumClasses: 2,
		// The refit is the paper's FS+GAN on the labelled shots the
		// controller kept; the candidate ships no classifier, so the
		// serving one is carried forward.
		Refit: func(_ context.Context, shots *dataset.Dataset, epoch int) (*ctrl.Candidate, error) {
			ad := core.NewAdapter(core.AdapterConfig{
				Mode: core.ModeFSRecon, Recon: core.ReconGAN,
				GAN: core.GANConfig{Epochs: 40}, Seed: 20 + int64(epoch),
			})
			if err := ad.Fit(d.Source, shots); err != nil {
				return nil, err
			}
			fmt.Printf("     FS identified %d variant features from %d shots; GAN trained on source only\n",
				len(ad.VariantFeatures()), len(shots.X))
			return &ctrl.Candidate{ID: fmt.Sprintf("refit-%d", epoch), Adapter: ad}, nil
		},
		WindowSize: 200, CheckEvery: 50,
		WatchFor: 200 * time.Millisecond, WatchEvery: 50 * time.Millisecond,
		BundleDir: bundles,
		OnEvent: func(ev ctrl.Event) {
			fmt.Printf("  -> %-14s %s\n", ev.Kind, ev.Detail)
			switch ev.Kind {
			case ctrl.EventWatchClear, ctrl.EventGateFail, ctrl.EventRefitFail, ctrl.EventPromoteFail, ctrl.EventRollback:
				select { // OnEvent may run under the controller's lock
				case done <- ev:
				default:
				}
			}
		},
	})
	if err != nil {
		return err
	}
	c.Start()
	defer c.Close()

	// Simulated stream: three in-domain weeks, then the drift arrives, and
	// the field labels five samples per fault type.
	srcPool := d.Source.Shuffle(rand.New(rand.NewSource(19)))
	support, _, err := d.Targets[0].Train.FewShot(5, true, rand.New(rand.NewSource(20)))
	if err != nil {
		return err
	}
	windows := []struct {
		name   string
		rows   [][]float64
		labels []int
	}{
		{"week 1 (stable)", srcPool.X[0:250], nil},
		{"week 2 (stable)", srcPool.X[250:500], nil},
		{"week 3 (stable)", srcPool.X[500:750], nil},
		{"field labels (5 per fault type)", support.X, support.Y},
		{"week 4 (traffic trend changed)", test.X[:250], nil},
	}
	// Telemetry arrives in batches of 25 rows; the controller checks its
	// 200-row window every 50 rows and needs two drifted checks in a row.
	const batch = 25
	for _, w := range windows {
		fmt.Println(w.name)
		var sum serve.IngestSummary
		for lo := 0; lo < len(w.rows); lo += batch {
			hi := min(lo+batch, len(w.rows))
			var labels []int
			if w.labels != nil {
				labels = w.labels[lo:hi]
			}
			if sum, err = c.IngestRows(w.rows[lo:hi], labels); err != nil {
				return err
			}
		}
		fmt.Printf("     phase=%s, labelled shots kept=%d\n", sum.Phase, sum.ReservoirRows)
	}

	// The campaign runs in the background: refit, gate, promote, watch.
	select {
	case ev := <-done:
		if ev.Kind != ctrl.EventWatchClear {
			return fmt.Errorf("drift campaign ended at %s: %s", ev.Kind, ev.Detail)
		}
	case <-time.After(5 * time.Minute):
		return fmt.Errorf("no drift campaign finished (controller phase %s)", c.Status().Phase)
	}
	fmt.Printf("\nserving %q: the refit adapter before the source-trained MLP, never retrained\n", reg.Current().ID)
	return nil
}
