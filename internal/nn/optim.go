package nn

import (
	"math"

	"saccs/internal/mat"
)

// Optimizer updates parameters from their accumulated gradients.
type Optimizer interface {
	// Step applies one update and clears nothing; callers ZeroGrads after.
	Step(params []*Param)
}

// SGD is plain stochastic gradient descent with optional weight decay.
type SGD struct {
	LR          float64
	WeightDecay float64
}

// Step applies w -= lr * (g + wd*w) to every parameter.
func (s *SGD) Step(params []*Param) {
	for _, p := range params {
		for i, g := range p.G.Data {
			if s.WeightDecay != 0 {
				g += s.WeightDecay * p.W.Data[i]
			}
			p.W.Data[i] -= s.LR * g
		}
		p.NoteMutated()
	}
}

// Adam implements the Adam optimizer with bias correction.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	t                     int
	// state holds each parameter's first and second moment estimates, in
	// the order Step first saw the parameters; callers pass the same
	// slice every step, so lookup is one pointer compare per parameter.
	state []adamState
}

type adamState struct {
	p    *Param
	m, v mat.Vec
}

// NewAdam returns an Adam optimizer with the standard defaults
// (β1=0.9, β2=0.999, ε=1e-8).
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one Adam update to every parameter (mat.AdamStep: the
// vectorized update, bit-identical to the scalar loop).
func (a *Adam) Step(params []*Param) {
	a.t++
	c := mat.AdamCoeffs{
		Beta1: a.Beta1, OneMinusBeta1: 1 - a.Beta1,
		Beta2: a.Beta2, OneMinusBeta2: 1 - a.Beta2,
		BC1: 1 - math.Pow(a.Beta1, float64(a.t)),
		BC2: 1 - math.Pow(a.Beta2, float64(a.t)),
		LR:  a.LR, Eps: a.Eps,
	}
	for i, p := range params {
		s := a.moments(i, p)
		mat.AdamStep(p.W.Data, p.G.Data, s.m, s.v, &c)
		p.NoteMutated()
	}
}

// moments returns p's moment state, expected at position i; a parameter
// seen for the first time gets zero moments.
func (a *Adam) moments(i int, p *Param) *adamState {
	if i < len(a.state) && a.state[i].p == p {
		return &a.state[i]
	}
	for j := range a.state {
		if a.state[j].p == p {
			return &a.state[j]
		}
	}
	n := len(p.W.Data)
	a.state = append(a.state, adamState{p: p, m: mat.NewVec(n), v: mat.NewVec(n)})
	return &a.state[len(a.state)-1]
}
