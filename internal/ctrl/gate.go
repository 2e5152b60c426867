package ctrl

import (
	"errors"
	"fmt"
	"math"

	"netdrift/internal/core"
	"netdrift/internal/dataset"
	"netdrift/internal/metrics"
	"netdrift/internal/models"
	"netdrift/internal/serve"
)

// GateReport is the shadow-evaluation verdict on one refit candidate.
type GateReport struct {
	// CandidateScore and IncumbentScore are macro-F1 on the probe set,
	// scaled [0,100]. CandidateScore is NaN when the candidate failed to
	// produce finite probe outputs (an automatic rejection).
	CandidateScore float64 `json:"candidate_score"`
	IncumbentScore float64 `json:"incumbent_score"`
	// Margin is the minimum win the candidate had to clear.
	Margin float64 `json:"margin"`
	// Pass is true when CandidateScore >= IncumbentScore + Margin.
	Pass bool `json:"pass"`
	// Reason explains a rejection ("" on pass).
	Reason string `json:"reason,omitempty"`
}

// scoreAdapter runs the probe set through one adapter + classifier on the
// serving path (AdaptBatch with pinned seeds, PredictProbaT) and returns
// macro-F1, so the score measures exactly what promoted traffic would see,
// bit for bit. The incumbent being scored may be serving live traffic
// meanwhile; that is safe because every eval forward (nn.Infer) only reads
// the networks, and only training writes them.
func scoreAdapter(ad *core.Adapter, clf *models.MLPClassifier, probe *dataset.Dataset, numClasses int) (float64, error) {
	seeds := make([]int64, len(probe.X))
	var scr core.AdaptScratch
	out, err := ad.AdaptBatch(probe.X, seeds, &scr)
	if err != nil {
		return 0, fmt.Errorf("adapt probe: %w", err)
	}
	for i := 0; i < out.Rows(); i++ {
		for _, v := range out.Row(i) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0, fmt.Errorf("adapt probe: non-finite output at row %d", i)
			}
		}
	}
	var mscr models.MLPScratch
	probs, err := clf.PredictProbaT(out, &mscr)
	if err != nil {
		return 0, fmt.Errorf("predict probe: %w", err)
	}
	yPred := make([]int, probs.Rows())
	for i := range yPred {
		yPred[i] = metrics.Argmax(probs.Row(i))
	}
	return metrics.MacroF1Score(probe.Y, yPred, numClasses)
}

// shadowGate scores the candidate against the incumbent bundle on the
// held-out probe set. Per the paper's protocol the downstream classifier is
// never retrained, so unless the candidate ships its own classifier both
// sides share the incumbent's — the gate then isolates exactly the
// adapter's contribution. A candidate that cannot be scored (transform
// error, non-finite outputs) is rejected, not escalated: a poisoned
// candidate is the case the gate exists for.
func shadowGate(cand *Candidate, inc *serve.Bundle, probe *dataset.Dataset, numClasses int, margin float64) (GateReport, error) {
	rep := GateReport{Margin: margin, CandidateScore: math.NaN(), IncumbentScore: math.NaN()}
	if inc == nil || inc.Adapter == nil {
		return rep, errors.New("ctrl: no incumbent bundle to gate against")
	}
	clf := cand.Classifier
	if clf == nil {
		clf = inc.Classifier
	}
	if clf == nil {
		return rep, errors.New("ctrl: no classifier available for gate scoring")
	}
	incClf := inc.Classifier
	if incClf == nil {
		incClf = clf // one classifier total: both sides share it
	}
	incScore, err := scoreAdapter(inc.Adapter, incClf, probe, numClasses)
	if err != nil {
		return rep, fmt.Errorf("ctrl: incumbent probe score: %w", err)
	}
	rep.IncumbentScore = incScore
	candScore, err := scoreAdapter(cand.Adapter, clf, probe, numClasses)
	if err != nil {
		rep.Reason = "candidate unscorable: " + err.Error()
		return rep, nil
	}
	rep.CandidateScore = candScore
	if candScore >= incScore+margin {
		rep.Pass = true
		return rep, nil
	}
	rep.Reason = fmt.Sprintf("candidate %.2f vs incumbent %.2f: margin %.2f not met", candScore, incScore, margin)
	return rep, nil
}
