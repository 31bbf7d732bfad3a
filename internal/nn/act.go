package nn

import (
	"math/rand"

	"saccs/internal/mat"
)

// SigmoidVec applies mat.Sigmoid element-wise, returning a new vector.
func SigmoidVec(x mat.Vec) mat.Vec {
	y := mat.NewVec(len(x))
	for i, v := range x {
		y[i] = mat.Sigmoid(v)
	}
	return y
}

// GELUInto applies the tanh-approximation GELU element-wise into y (which
// must not alias x): gelu's tanh argument as a row, one mat.TanhRow over it,
// then gelu's product — its operations in its order. It is bert's
// feed-forward activation, a row at a time.
func GELUInto(y, x mat.Vec) {
	const c = 0.7978845608028654 // sqrt(2/pi)
	y = y[:len(x)]
	for i, v := range x {
		y[i] = c * (v + 0.044715*v*v*v)
	}
	mat.TanhRow(y, y)
	for i, v := range x {
		y[i] = 0.5 * v * (1 + y[i])
	}
}

// GELUBackwardInto writes into dx (which must alias neither x nor dy) the
// upstream gradient dy scaled by dGELU/dx at the forward input x. dx holds
// the tanh row until the last loop overwrites it element by element.
func GELUBackwardInto(dx, x, dy mat.Vec) {
	const c = 0.7978845608028654
	t := dx[:len(x)]
	for i, v := range x {
		t[i] = c * (v + 0.044715*v*v*v)
	}
	mat.TanhRow(t, t)
	for i, v := range x {
		dinner := c * (1 + 3*0.044715*v*v)
		dx[i] = dy[i] * (0.5*(1+t[i]) + 0.5*v*(1-t[i]*t[i])*dinner)
	}
}

// Dropout zeroes activations with probability P during training and rescales
// survivors by 1/(1-P) (inverted dropout). In eval mode it is the identity.
type Dropout struct {
	P     float64
	Train bool
	rng   *rand.Rand
}

// NewDropout returns a dropout layer in training mode.
func NewDropout(rng *rand.Rand, p float64) *Dropout {
	return &Dropout{P: p, Train: true, rng: rng}
}

// Forward applies dropout to x's rows, into rows carved from a, drawing the
// keep decisions token by token, element by element. With a tape it records
// the keep mask for Backward. In eval mode, or when P ≤ 0, it returns x
// itself and records a nil mask.
func (d *Dropout) Forward(x *mat.Mat, a *Arena, t *Tape) *mat.Mat {
	if !d.Train || d.P <= 0 {
		if t != nil {
			t.Push(nil)
		}
		return x
	}
	y, keep := a.Mat(x.Rows, x.Cols), a.Mat(x.Rows, x.Cols)
	scale := 1 / (1 - d.P)
	for i, v := range x.Data {
		if d.rng.Float64() >= d.P {
			keep.Data[i] = 1
			y.Data[i] = v * scale
		}
	}
	if t != nil {
		t.Push(keep)
	}
	return y
}

// Backward pops the mask Forward recorded and routes the upstream gradients
// through it (a nil mask: the identity, dy itself).
func (d *Dropout) Backward(t *Tape, dy *mat.Mat) *mat.Mat {
	keep := t.Pop()
	if keep == nil {
		return dy
	}
	dx := t.Mat(dy.Rows, dy.Cols)
	scale := 1 / (1 - d.P)
	for i, k := range keep.Data {
		if k != 0 {
			dx.Data[i] = dy.Data[i] * scale
		}
	}
	return dx
}
