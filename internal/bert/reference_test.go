package bert

import (
	"math"
	"slices"

	"saccs/internal/mat"
	"saccs/internal/nn"
)

// The per-token reference forward the matrix forward is pinned against: the
// []mat.Vec attention, layer norm and block forwards training ran before it
// moved onto the matrix forward, with the projections as one
// Linear.Forward (MulVec) per token. Each returns the attention rows it
// computed, [layer][head][token].

// perToken applies l to each vector.
func perToken(l *nn.Linear, xs []mat.Vec) []mat.Vec {
	out := make([]mat.Vec, len(xs))
	for i, x := range xs {
		out[i] = l.Forward(x)
	}
	return out
}

// addVecs returns the element-wise sums xs[i] + ys[i].
func addVecs(xs, ys []mat.Vec) []mat.Vec {
	out := make([]mat.Vec, len(xs))
	for i, x := range xs {
		out[i] = slices.Clone(x)
		out[i].Add(ys[i])
	}
	return out
}

func refAttention(m *MultiHeadAttention, xs []mat.Vec) ([]mat.Vec, [][]mat.Vec) {
	n := len(xs)
	q, k, v := perToken(m.Wq, xs), perToken(m.Wk, xs), perToken(m.Wv, xs)
	scale := 1 / math.Sqrt(float64(m.HeadDim))
	attn := make([][]mat.Vec, m.Heads)
	headOut := make([]mat.Vec, n)
	for i := range headOut {
		headOut[i] = mat.NewVec(m.Dim)
	}
	scores := mat.NewVec(n)
	for h := 0; h < m.Heads; h++ {
		lo := h * m.HeadDim
		hi := lo + m.HeadDim
		attn[h] = make([]mat.Vec, n)
		for i := 0; i < n; i++ {
			qi := q[i][lo:hi]
			for j := 0; j < n; j++ {
				scores[j] = qi.Dot(k[j][lo:hi]) * scale
			}
			a := mat.NewVec(n)
			mat.Softmax(a, scores)
			attn[h][i] = a
			out := headOut[i][lo:hi]
			for j := 0; j < n; j++ {
				if a[j] == 0 {
					continue
				}
				out.AddScaled(a[j], v[j][lo:hi])
			}
		}
	}
	return perToken(m.Wo, headOut), attn
}

func refLayerNorm(ln *LayerNorm, xs []mat.Vec) []mat.Vec {
	ys := make([]mat.Vec, len(xs))
	for t, x := range xs {
		mean := x.Mean()
		var varSum float64
		for _, v := range x {
			d := v - mean
			varSum += d * d
		}
		std := math.Sqrt(varSum/float64(len(x)) + ln.Eps)
		xhat, y := mat.NewVec(ln.Dim), mat.NewVec(ln.Dim)
		for i, v := range x {
			xhat[i] = (v - mean) / std
			y[i] = xhat[i]*ln.Gain.W.Data[i] + ln.Bias.W.Data[i]
		}
		ys[t] = y
	}
	return ys
}

func refBlock(b *Block, xs []mat.Vec) ([]mat.Vec, [][]mat.Vec) {
	attnOut, attn := refAttention(b.Attn, xs)
	h1 := refLayerNorm(b.LN1, addVecs(xs, attnOut))
	ffPre := perToken(b.FF1, h1)
	ffAct := make([]mat.Vec, len(ffPre))
	for i, p := range ffPre {
		ffAct[i] = mat.NewVec(len(p))
		nn.GELUInto(ffAct[i], p)
	}
	return refLayerNorm(b.LN2, addVecs(h1, perToken(b.FF2, ffAct))), attn
}

// refEncode is Encode's reference: ids truncated to MaxLen, token plus
// position embeddings, then every block.
func refEncode(m *Model, ids []int) ([]mat.Vec, [][][]mat.Vec) {
	ids = m.truncate(ids)
	h := make([]mat.Vec, len(ids))
	for i, id := range ids {
		h[i] = mat.NewVec(m.Cfg.Dim)
		m.TokEmb.LookupInto(h[i], id)
		h[i].Add(m.PosEmb.Table.W.Row(i))
	}
	attn := make([][][]mat.Vec, len(m.Blocks))
	for l, b := range m.Blocks {
		h, attn[l] = refBlock(b, h)
	}
	return h, attn
}
