package mat

import "math"

// AdamCoeffs are the scalars of one Adam step, in the layout the vector
// kernel broadcasts from: the moment decays β1 and β2 with their
// complements, the bias corrections bc1 = 1−β1ᵗ and bc2 = 1−β2ᵗ, the
// learning rate and ε.
type AdamCoeffs struct {
	Beta1, OneMinusBeta1 float64
	Beta2, OneMinusBeta2 float64
	BC1, BC2             float64
	LR, Eps              float64
}

// AdamStep applies one Adam update to the parameter w with gradient g and
// moment estimates m and v (all the same length), in place:
//
//	m = β1·m + (1−β1)·g
//	v = β2·v + ((1−β2)·g)·g
//	w = w − (lr·(m/bc1)) / (sqrt(v/bc2) + ε)
//
// Every element is independent and every operation is a single correctly
// rounded IEEE operation, none fused, so the AVX-512 path (eight lanes at a
// time, same operations in the same order) is bit-identical to the scalar
// loop below.
func AdamStep(w, g, m, v Vec, c *AdamCoeffs) {
	checkLen(len(g), len(w))
	checkLen(len(m), len(w))
	checkLen(len(v), len(w))
	adamStepFast(w, g, m, v, c)
}

// adamStepGo is AdamStep's portable path and the vector kernel's reference.
func adamStepGo(w, g, m, v Vec, c *AdamCoeffs) {
	for i, gi := range g {
		m[i] = c.Beta1*m[i] + c.OneMinusBeta1*gi
		v[i] = c.Beta2*v[i] + c.OneMinusBeta2*gi*gi
		mhat := m[i] / c.BC1
		vhat := v[i] / c.BC2
		w[i] -= c.LR * mhat / (math.Sqrt(vhat) + c.Eps)
	}
}
