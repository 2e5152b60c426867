package baselines

import "netdrift/internal/obs"

// Observe starts timing one unit of a method's work — a Predict, or a whole
// Table I cell (one Adapt and every classifier fitted on it) — under a
// "method.predict" span and the netdrift_method_predict_seconds histogram,
// both labelled with the method name. The returned func ends the unit. A
// nil observer records nothing.
func Observe(o *obs.Observer, method string) (end func()) {
	stop := o.Time(obs.MetricMethodSeconds, "method", method)
	sp := o.StartSpan("method.predict")
	sp.SetAttr("method", method)
	return func() {
		sp.End()
		stop()
	}
}
