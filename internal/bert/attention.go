package bert

import (
	"math"
	"math/rand"

	"saccs/internal/mat"
	"saccs/internal/nn"
)

// MultiHeadAttention is bidirectional (unmasked) self-attention over a token
// sequence, split into Heads independent heads.
type MultiHeadAttention struct {
	Dim, Heads, HeadDim int
	Wq, Wk, Wv, Wo      *nn.Linear

	// qkv caches Wq/Wk/Wv frozen as one stacked int8 weight for the
	// reduced-precision forward (infer_quant.go); their own Quantize copies
	// are never built on that path. Never copy an attention block by value.
	qkv nn.StackedQuant
}

// NewMultiHeadAttention returns an attention block; dim must divide by heads.
func NewMultiHeadAttention(rng *rand.Rand, name string, dim, heads int) *MultiHeadAttention {
	if dim%heads != 0 {
		panic("bert: dim must be divisible by heads")
	}
	return &MultiHeadAttention{
		Dim: dim, Heads: heads, HeadDim: dim / heads,
		Wq: nn.NewLinear(rng, name+".wq", dim, dim),
		Wk: nn.NewLinear(rng, name+".wk", dim, dim),
		Wv: nn.NewLinear(rng, name+".wv", dim, dim),
		Wo: nn.NewLinear(rng, name+".wo", dim, dim),
	}
}

// Params returns the learnable tensors.
func (m *MultiHeadAttention) Params() []*nn.Param {
	var ps []*nn.Param
	for _, l := range []*nn.Linear{m.Wq, m.Wk, m.Wv, m.Wo} {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Forward runs self-attention over a sequence, a token per row of x, every
// matrix carved from a. The Q/K/V/O projections are GEMMs over all rows;
// the score, softmax and weighted-sum loops run per head and token. A
// non-nil attn (Heads·n × n) receives the attention rows, head h and token i
// at row h·n+i; with attn nil the loop reuses one row. With a tape it
// records Q, K, V and the attention rows for Backward, in attn or, when attn
// is nil, in a block carved from a.
func (m *MultiHeadAttention) Forward(x *mat.Mat, a *nn.Arena, t *nn.Tape, attn *mat.Mat) *mat.Mat {
	n := x.Rows
	q := m.Wq.ForwardRows(x, a, t)
	k := m.Wk.ForwardRows(x, a, t)
	v := m.Wv.ForwardRows(x, a, t)
	scale := 1 / math.Sqrt(float64(m.HeadDim))
	headOut := a.Mat(n, m.Dim)
	sc := a.Vec(n)
	at := a.Vec(n) // with attn nil: one reused attention row
	if t != nil {
		if attn == nil {
			attn = a.MatRaw(m.Heads*n, n)
		}
		t.Push(q, k, v, attn)
	}
	for h := 0; h < m.Heads; h++ {
		lo := h * m.HeadDim
		hi := lo + m.HeadDim
		for i := 0; i < n; i++ {
			if attn != nil {
				at = attn.Row(h*n + i)
			}
			// The dot and weighted-sum loops below are Vec.Dot and
			// Vec.AddScaled inlined (same per-element order, ascending
			// k/j, zero-weight skip preserved) — the call and slicing
			// overhead of 2·n² tiny vector ops per head dominates at
			// HeadDim 8, so the serial kernels are spelled out here.
			qi := q.Row(i)[lo:hi:hi]
			// Two keys per iteration: each dot keeps Vec.Dot's ascending-d
			// accumulation (bit-identical), but the two independent sum
			// chains overlap in the FP pipeline where a single chain is
			// latency-bound.
			j := 0
			for ; j+1 < n; j += 2 {
				kj0 := k.Row(j)[lo:hi:hi]
				kj1 := k.Row(j + 1)[lo:hi:hi]
				var s0, s1 float64
				for d, qv := range qi {
					s0 += qv * kj0[d]
					s1 += qv * kj1[d]
				}
				sc[j] = s0 * scale
				sc[j+1] = s1 * scale
			}
			for ; j < n; j++ {
				kj := k.Row(j)[lo:hi:hi]
				var s float64
				for d, qv := range qi {
					s += qv * kj[d]
				}
				sc[j] = s * scale
			}
			mat.Softmax(at, sc)
			out := headOut.Row(i)[lo:hi:hi]
			for j := 0; j < n; j++ {
				aj := at[j]
				if aj == 0 {
					continue
				}
				vj := v.Row(j)[lo:hi:hi]
				for d := range out {
					out[d] += aj * vj[d]
				}
			}
		}
	}
	return m.Wo.ForwardRows(headOut, a, t)
}

// Backward pops what Forward recorded, backpropagates the upstream
// gradients dy (a row per token) and returns the input gradients.
func (m *MultiHeadAttention) Backward(t *nn.Tape, dy *mat.Mat) *mat.Mat {
	dHeadOut := m.Wo.BackwardRows(t, dy)
	attn, v, k, q := t.Pop(), t.Pop(), t.Pop(), t.Pop()
	n := dy.Rows
	scale := 1 / math.Sqrt(float64(m.HeadDim))
	dq, dk, dv := t.Mat(n, m.Dim), t.Mat(n, m.Dim), t.Mat(n, m.Dim)
	dA := t.Vec(n)
	for h := 0; h < m.Heads; h++ {
		lo := h * m.HeadDim
		hi := lo + m.HeadDim
		for i := 0; i < n; i++ {
			at := attn.Row(h*n + i)
			dOut := dHeadOut.Row(i)[lo:hi]
			// dA[j] = dOut · v_j ; dv_j += a[j] * dOut
			for j := 0; j < n; j++ {
				dA[j] = dOut.Dot(v.Row(j)[lo:hi])
				dv.Row(j)[lo:hi].AddScaled(at[j], dOut)
			}
			// Softmax backward: dS[j] = a[j]*(dA[j] - Σ_k a[k] dA[k])
			var dot float64
			for j := 0; j < n; j++ {
				dot += at[j] * dA[j]
			}
			for j := 0; j < n; j++ {
				dS := at[j] * (dA[j] - dot) * scale
				if dS == 0 {
					continue
				}
				dq.Row(i)[lo:hi].AddScaled(dS, k.Row(j)[lo:hi])
				dk.Row(j)[lo:hi].AddScaled(dS, q.Row(i)[lo:hi])
			}
		}
	}
	// The tape pops Wv, Wk, Wq in that order; the input gradient still sums
	// as (dq + dk) + dv.
	dxv := m.Wv.BackwardRows(t, dv)
	dxk := m.Wk.BackwardRows(t, dk)
	dx := m.Wq.BackwardRows(t, dq)
	mat.Vec(dx.Data).Add(dxk.Data)
	mat.Vec(dx.Data).Add(dxv.Data)
	return dx
}
