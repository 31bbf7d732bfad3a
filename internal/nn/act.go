package nn

import (
	"math"
	"math/rand"

	"saccs/internal/mat"
)

// Sigmoid returns 1/(1+e^-x) computed stably.
func Sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// SigmoidVec applies Sigmoid element-wise, returning a new vector.
func SigmoidVec(x mat.Vec) mat.Vec {
	y := mat.NewVec(len(x))
	for i, v := range x {
		y[i] = Sigmoid(v)
	}
	return y
}

// TanhVec applies tanh element-wise, returning a new vector.
func TanhVec(x mat.Vec) mat.Vec {
	y := mat.NewVec(len(x))
	for i, v := range x {
		y[i] = math.Tanh(v)
	}
	return y
}

// ReLUVec applies max(0,x) element-wise, returning a new vector.
func ReLUVec(x mat.Vec) mat.Vec {
	y := mat.NewVec(len(x))
	for i, v := range x {
		if v > 0 {
			y[i] = v
		}
	}
	return y
}

// ReLUBackward returns dy masked by the forward activation y.
func ReLUBackward(y, dy mat.Vec) mat.Vec {
	dx := mat.NewVec(len(y))
	for i := range y {
		if y[i] > 0 {
			dx[i] = dy[i]
		}
	}
	return dx
}

// GELUVec applies the tanh-approximation GELU used by transformer FFNs.
func GELUVec(x mat.Vec) mat.Vec {
	y := mat.NewVec(len(x))
	for i, v := range x {
		y[i] = gelu(v)
	}
	return y
}

func gelu(x float64) float64 {
	const c = 0.7978845608028654 // sqrt(2/pi)
	return 0.5 * x * (1 + math.Tanh(c*(x+0.044715*x*x*x)))
}

// GELUBackwardInto writes into dx the upstream gradient dy scaled by
// dGELU/dx at the forward input x.
func GELUBackwardInto(dx, x, dy mat.Vec) {
	const c = 0.7978845608028654
	for i, v := range x {
		inner := c * (v + 0.044715*v*v*v)
		t := math.Tanh(inner)
		dinner := c * (1 + 3*0.044715*v*v)
		dx[i] = dy[i] * (0.5*(1+t) + 0.5*v*(1-t*t)*dinner)
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

// ForwardSeq applies dropout to each vector of xs, drawing the keep
// decisions token by token, element by element, and returns the outputs
// plus the masks BackwardSeq needs (nil in eval mode or when P==0). The
// outputs and the masks are each backed by one array.
func (d *Dropout) ForwardSeq(xs []mat.Vec) ([]mat.Vec, [][]bool) {
	if len(xs) == 0 {
		return nil, nil
	}
	ys := NewSeq(len(xs), len(xs[0]))
	if !d.Train || d.P <= 0 {
		for i, x := range xs {
			copy(ys[i], x)
		}
		return ys, nil
	}
	flat := make([]bool, len(xs)*len(xs[0]))
	masks := make([][]bool, len(xs))
	scale := 1 / (1 - d.P)
	for t, x := range xs {
		mask := flat[t*len(x) : (t+1)*len(x) : (t+1)*len(x)]
		y := ys[t]
		for i, v := range x {
			if d.rng.Float64() >= d.P {
				mask[i] = true
				y[i] = v * scale
			}
		}
		masks[t] = mask
	}
	return ys, masks
}

// BackwardSeq routes each upstream gradient through its ForwardSeq mask
// (masks nil: the identity).
func (d *Dropout) BackwardSeq(dys []mat.Vec, masks [][]bool) []mat.Vec {
	if len(dys) == 0 {
		return nil
	}
	dxs := NewSeq(len(dys), len(dys[0]))
	scale := 1 / (1 - d.P)
	for t, dy := range dys {
		if masks == nil {
			copy(dxs[t], dy)
			continue
		}
		for i, v := range dy {
			if masks[t][i] {
				dxs[t][i] = v * scale
			}
		}
	}
	return dxs
}
