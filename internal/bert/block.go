package bert

import (
	"math/rand"

	"saccs/internal/mat"
	"saccs/internal/nn"
)

// Block is one transformer encoder layer: self-attention with a residual
// connection and layer norm, then a position-wise feed-forward network with
// a second residual and layer norm (post-norm arrangement).
type Block struct {
	Attn     *MultiHeadAttention
	LN1, LN2 *LayerNorm
	FF1, FF2 *nn.Linear
}

// NewBlock builds one encoder layer.
func NewBlock(rng *rand.Rand, name string, dim, heads, ffDim int) *Block {
	return &Block{
		Attn: NewMultiHeadAttention(rng, name+".attn", dim, heads),
		LN1:  NewLayerNorm(name+".ln1", dim),
		LN2:  NewLayerNorm(name+".ln2", dim),
		FF1:  nn.NewLinear(rng, name+".ff1", dim, ffDim),
		FF2:  nn.NewLinear(rng, name+".ff2", ffDim, dim),
	}
}

// Params returns the learnable tensors of the layer.
func (b *Block) Params() []*nn.Param {
	ps := b.Attn.Params()
	ps = append(ps, b.LN1.Params()...)
	ps = append(ps, b.LN2.Params()...)
	ps = append(ps, b.FF1.Params()...)
	ps = append(ps, b.FF2.Params()...)
	return ps
}

// Forward runs the layer over a sequence, a token per row of x, every matrix
// carved from a: res1 = x + attn(x), h1 = LN1(res1), res2 = h1 +
// FF2(gelu(FF1(h1))), out = LN2(res2). With a tape its sublayers record
// themselves, and the block records the pre-GELU FFN rows.
func (b *Block) Forward(x *mat.Mat, a *nn.Arena, t *nn.Tape) *mat.Mat {
	n := x.Rows
	res1 := addRows(a, x, b.Attn.Forward(x, a, t))
	h1 := b.LN1.Forward(res1, a, t)
	ffPre := b.FF1.ForwardRows(h1, a, t)
	if t != nil {
		t.Push(ffPre)
	}
	ffAct := a.MatRaw(n, ffPre.Cols)
	for i := 0; i < n; i++ {
		nn.GELUInto(ffAct.Row(i), ffPre.Row(i))
	}
	res2 := addRows(a, h1, b.FF2.ForwardRows(ffAct, a, t))
	return b.LN2.Forward(res2, a, t)
}

// addRows returns x + y, element-wise, in a matrix carved from a.
func addRows(a *nn.Arena, x, y *mat.Mat) *mat.Mat {
	out := a.MatRaw(x.Rows, x.Cols)
	copy(out.Data, x.Data)
	mat.Vec(out.Data).Add(y.Data)
	return out
}

// Backward pops what Forward recorded, backpropagates the upstream
// gradients dy (a row per token) and returns the input gradients.
func (b *Block) Backward(t *nn.Tape, dy *mat.Mat) *mat.Mat {
	dRes2 := b.LN2.Backward(t, dy)
	// res2 = h1 + FF2(gelu(FF1(h1)))
	dFFAct := b.FF2.BackwardRows(t, dRes2)
	ffPre := t.Pop()
	dFFPre := t.MatRaw(ffPre.Rows, ffPre.Cols)
	for i := 0; i < ffPre.Rows; i++ {
		nn.GELUBackwardInto(dFFPre.Row(i), ffPre.Row(i), dFFAct.Row(i))
	}
	dH1 := b.FF1.BackwardRows(t, dFFPre)
	mat.Vec(dH1.Data).Add(dRes2.Data) // residual path
	dRes1 := b.LN1.Backward(t, dH1)
	// res1 = x + attn(x): dRes1 is this call's own buffer and Attn has
	// consumed it, so the residual sum is formed in place.
	mat.Vec(dRes1.Data).Add(b.Attn.Backward(t, dRes1).Data)
	return dRes1
}
