package nn

import (
	"math"

	"saccs/internal/mat"
)

// Row kernels with no matrix form: the element-wise GELU of bert's
// feed-forward layers (forward and backward) and the arena-backed Viterbi
// decode. GELUInto executes the scalar gelu's float operations and
// DecodeArena the Decode recursion, each in the same order, and neither
// writes receiver state — any number of goroutines may run them
// concurrently, each with its own Arena.

// GELUInto applies the tanh-approximation GELU element-wise into y (which
// must not alias x): gelu's tanh argument as a row, one mat.TanhRow over it,
// then gelu's product — its operations in its order.
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

// DecodeArena is Decode with arena-backed scratch: the same Viterbi
// recursion, scores, and tie-breaking, but the delta/backpointer/path
// buffers come from a and the call allocates nothing once the arena is warm.
// The returned path belongs to the arena — copy it out before Reset.
func (c *CRF) DecodeArena(emissions []mat.Vec, a *Arena) []int {
	n := len(emissions)
	if n == 0 {
		return nil
	}
	L := c.L
	delta := a.Vec(L)
	for j := 0; j < L; j++ {
		delta[j] = c.start(j) + emissions[0][j]
	}
	back := a.Ints(n * L)
	next := a.Vec(L)
	for t := 1; t < n; t++ {
		bt := back[t*L : (t+1)*L]
		for j := 0; j < L; j++ {
			best, bi := math.Inf(-1), 0
			for i := 0; i < L; i++ {
				s := delta[i] + c.trans(i, j)
				if s > best {
					best, bi = s, i
				}
			}
			next[j] = best + emissions[t][j]
			bt[j] = bi
		}
		copy(delta, next)
	}
	for j := 0; j < L; j++ {
		delta[j] += c.End.W.At(0, j)
	}
	path := a.Ints(n)
	path[n-1] = delta.MaxIdx()
	for t := n - 1; t > 0; t-- {
		path[t-1] = back[t*L+path[t]]
	}
	return path
}
