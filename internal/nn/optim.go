package nn

import (
	"math"

	"netdrift/internal/par"
)

// Adam is the Adam optimizer with decoupled weight decay. The paper's GAN
// uses lr 2e-4 with decay 1e-6 (§V-C3).
type Adam struct {
	LR          float64
	Beta1       float64 // default 0.9
	Beta2       float64 // default 0.999
	Eps         float64 // default 1e-8
	WeightDecay float64

	t    int
	m, v map[*Param][]float64
	k    adamCoef // the current step's constants, kept here so passing them allocates nothing

	team  *par.Team // splits each parameter's update when set (see SetTeam)
	split adamSplit
}

// NewAdam creates an Adam optimizer with standard betas.
func NewAdam(lr, weightDecay float64) *Adam {
	return &Adam{
		LR:          lr,
		Beta1:       0.9,
		Beta2:       0.999,
		Eps:         1e-8,
		WeightDecay: weightDecay,
		m:           make(map[*Param][]float64),
		v:           make(map[*Param][]float64),
	}
}

// SetTeam splits every later Step's parameter updates across team by
// element ranges, bit for bit the unsplit update (each element's update
// reads only that element). A nil team runs them on the caller again.
func (o *Adam) SetTeam(team *par.Team) { o.team = team }

// Step applies one Adam update and zeroes gradients.
func (o *Adam) Step(params []*Param) {
	o.t++
	o.k = adamCoef{
		b1: o.Beta1, c1: 1 - o.Beta1,
		b2: o.Beta2, c2: 1 - o.Beta2,
		bc1: 1 - math.Pow(o.Beta1, float64(o.t)),
		bc2: 1 - math.Pow(o.Beta2, float64(o.t)),
		lr:  o.LR, eps: o.Eps,
		wd: o.WeightDecay, decay: o.WeightDecay != 0,
	}
	for _, p := range params {
		m, ok := o.m[p]
		if !ok {
			m = make([]float64, len(p.Data))
			o.m[p] = m
		}
		v, ok := o.v[p]
		if !ok {
			v = make([]float64, len(p.Data))
			o.v[p] = v
		}
		adamUpdateTeam(o.team, &o.split, p.Data, p.Grad, m, v, &o.k)
		p.stepped()
		p.ZeroGrad()
	}
}
