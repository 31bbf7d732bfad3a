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
	cache               *mhaCache

	// qkv caches Wq/Wk/Wv frozen as one stacked int8 weight for the
	// reduced-precision forward (infer_quant.go); their own Quantize copies
	// are never built on that path. Never copy an attention block by value.
	qkv nn.StackedQuant
}

type mhaCache struct {
	xs         []mat.Vec
	q, k, v    []mat.Vec   // per token, full Dim
	attn       [][]mat.Vec // [head][i] -> weights over j
	headOut    []mat.Vec   // per token, concatenated head outputs
	outputsRaw []mat.Vec   // Wo input (== headOut)
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

// ForwardSeq runs self-attention over the sequence and returns the per-token
// outputs. Attention matrices are cached and retrievable via Attention.
func (m *MultiHeadAttention) ForwardSeq(xs []mat.Vec) []mat.Vec {
	n := len(xs)
	c := &mhaCache{
		xs: xs,
		q:  m.Wq.ForwardSeq(xs),
		k:  m.Wk.ForwardSeq(xs),
		v:  m.Wv.ForwardSeq(xs),
	}
	scale := 1 / math.Sqrt(float64(m.HeadDim))
	c.attn = make([][]mat.Vec, m.Heads)
	c.headOut = nn.NewSeq(n, m.Dim)
	scores := mat.NewVec(n)
	for h := 0; h < m.Heads; h++ {
		lo := h * m.HeadDim
		hi := lo + m.HeadDim
		c.attn[h] = nn.NewSeq(n, n)
		for i := 0; i < n; i++ {
			qi := c.q[i][lo:hi]
			for j := 0; j < n; j++ {
				scores[j] = mat.Vec(qi).Dot(c.k[j][lo:hi]) * scale
			}
			a := c.attn[h][i]
			mat.Softmax(a, scores)
			out := c.headOut[i][lo:hi]
			for j := 0; j < n; j++ {
				if a[j] == 0 {
					continue
				}
				mat.Vec(out).AddScaled(a[j], c.v[j][lo:hi])
			}
		}
	}
	c.outputsRaw = c.headOut
	m.cache = c
	return m.Wo.ForwardSeq(c.headOut)
}

// Attention returns the cached attention matrix of one head: row i is token
// i's distribution over the sequence (Fig. 5's heatmap rows).
func (m *MultiHeadAttention) Attention(head int) []mat.Vec {
	if m.cache == nil || head < 0 || head >= m.Heads {
		return nil
	}
	return m.cache.attn[head]
}

// BackwardSeq backpropagates through the most recent ForwardSeq and returns
// per-token input gradients.
func (m *MultiHeadAttention) BackwardSeq(dys []mat.Vec) []mat.Vec {
	c := m.cache
	n := len(dys)
	scale := 1 / math.Sqrt(float64(m.HeadDim))

	dHeadOut := m.Wo.BackwardSeq(c.outputsRaw, dys)
	dq := nn.NewSeq(n, m.Dim)
	dk := nn.NewSeq(n, m.Dim)
	dv := nn.NewSeq(n, m.Dim)
	dA := mat.NewVec(n)
	for h := 0; h < m.Heads; h++ {
		lo := h * m.HeadDim
		hi := lo + m.HeadDim
		for i := 0; i < n; i++ {
			a := c.attn[h][i]
			dOut := mat.Vec(dHeadOut[i][lo:hi])
			// dA[j] = dOut · v_j ; dv_j += a[j] * dOut
			for j := 0; j < n; j++ {
				dA[j] = dOut.Dot(c.v[j][lo:hi])
				mat.Vec(dv[j][lo:hi]).AddScaled(a[j], dOut)
			}
			// Softmax backward: dS[j] = a[j]*(dA[j] - Σ_k a[k] dA[k])
			var dot float64
			for j := 0; j < n; j++ {
				dot += a[j] * dA[j]
			}
			for j := 0; j < n; j++ {
				dS := a[j] * (dA[j] - dot) * scale
				if dS == 0 {
					continue
				}
				mat.Vec(dq[i][lo:hi]).AddScaled(dS, c.k[j][lo:hi])
				mat.Vec(dk[j][lo:hi]).AddScaled(dS, c.q[i][lo:hi])
			}
		}
	}
	dxs := m.Wq.BackwardSeq(c.xs, dq) // this call's own buffer: sum in place
	dxk := m.Wk.BackwardSeq(c.xs, dk)
	dxv := m.Wv.BackwardSeq(c.xs, dv)
	for i, dx := range dxs {
		dx.Add(dxk[i])
		dx.Add(dxv[i])
	}
	return dxs
}
