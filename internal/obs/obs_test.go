package obs

import (
	"testing"
	"time"
)

// recordingHooks captures forwarded hook events.
type recordingHooks struct {
	epochs   []TrainEpoch
	dones    []TrainDone
	tests    []CITest
	verdicts []FeatureVerdict
}

func (r *recordingHooks) Epoch(e TrainEpoch)       { r.epochs = append(r.epochs, e) }
func (r *recordingHooks) Done(d TrainDone)         { r.dones = append(r.dones, d) }
func (r *recordingHooks) CITest(t CITest)          { r.tests = append(r.tests, t) }
func (r *recordingHooks) Verdict(v FeatureVerdict) { r.verdicts = append(r.verdicts, v) }

func TestObserverNilSafety(t *testing.T) {
	var o *Observer
	o.Counter("c").Inc()
	o.Gauge("g").Set(1)
	o.Histogram("h", nil).Observe(1)
	o.Time("t")()
	o.OnTrainEpoch(TrainEpoch{})
	o.OnTrainDone(TrainDone{})
	o.OnCITest(CITest{})
	o.OnVerdict(FeatureVerdict{})
}

func TestObserverHookForwarding(t *testing.T) {
	rec := &recordingHooks{}
	o := New()
	o.Train = rec
	o.Search = rec

	o.OnTrainEpoch(TrainEpoch{Model: "GAN", Epoch: 0, GenLoss: 1.5, DiscLoss: 0.7, Adversarial: true})
	o.OnTrainDone(TrainDone{Model: "GAN", Epochs: 10, ConvergedEpoch: 8})
	o.OnCITest(CITest{X: 3, Y: 12, CondSize: 2, P: 0.4})
	o.OnCITest(CITest{X: 4, Y: 12, CondSize: 0, P: 0.001})
	o.OnVerdict(FeatureVerdict{Feature: 4, Variant: true})
	o.OnVerdict(FeatureVerdict{Feature: 3, Variant: false, Exonerated: true})

	if len(rec.epochs) != 1 || rec.epochs[0].GenLoss != 1.5 {
		t.Errorf("epochs = %+v", rec.epochs)
	}
	if len(rec.dones) != 1 || rec.dones[0].ConvergedEpoch != 8 {
		t.Errorf("dones = %+v", rec.dones)
	}
	if len(rec.tests) != 2 {
		t.Errorf("tests = %+v", rec.tests)
	}
	if len(rec.verdicts) != 2 {
		t.Errorf("verdicts = %+v", rec.verdicts)
	}

	// The registry side must record in parallel with the hooks.
	if v, ok := o.Registry.Value(MetricCITests, "kind", "conditional"); !ok || v != 1 {
		t.Errorf("conditional CI counter = %g, %v", v, ok)
	}
	if v, ok := o.Registry.Value(MetricCITests, "kind", "marginal"); !ok || v != 1 {
		t.Errorf("marginal CI counter = %g, %v", v, ok)
	}
	if v, ok := o.Registry.Value(MetricFSVerdicts, "verdict", "variant"); !ok || v != 1 {
		t.Errorf("variant verdict counter = %g, %v", v, ok)
	}
	if c := o.Registry.Histogram(MetricGenLoss, nil, "model", "GAN").Count(); c != 1 {
		t.Errorf("gen loss observations = %d", c)
	}
	if c := o.Registry.Histogram(MetricConvergedEpoch, nil, "model", "GAN").Count(); c != 1 {
		t.Errorf("converged epoch observations = %d", c)
	}
}

func TestObserverTime(t *testing.T) {
	o := New()
	stop := o.Time(MetricTransformSeconds)
	time.Sleep(2 * time.Millisecond)
	stop()
	h := o.Registry.Histogram(MetricTransformSeconds, nil)
	if h.Count() != 1 {
		t.Fatalf("timer observations = %d", h.Count())
	}
	if h.Sum() <= 0 {
		t.Error("timer should record positive elapsed seconds")
	}
}
