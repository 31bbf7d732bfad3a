package nn

import (
	"math"
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
