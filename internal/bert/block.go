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

	cache *blockCache
}

type blockCache struct {
	xs      []mat.Vec // block input
	res1    []mat.Vec // x + attn(x), LN1 input
	h1      []mat.Vec // LN1 output (FFN input)
	ffPre   []mat.Vec // FF1 output pre-GELU
	ffAct   []mat.Vec // GELU output
	res2In  []mat.Vec // h1 + FF2(ffAct), LN2 input
	ffnOuts []mat.Vec
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

// ForwardSeq runs the layer over a token vector sequence.
func (b *Block) ForwardSeq(xs []mat.Vec) []mat.Vec {
	c := &blockCache{xs: xs}
	attnOut := b.Attn.ForwardSeq(xs)
	c.res1 = addSeq(xs, attnOut)
	c.h1 = b.LN1.ForwardSeq(c.res1)

	c.ffPre = b.FF1.ForwardSeq(c.h1)
	c.ffAct = nn.NewSeq(len(xs), b.FF1.Out)
	for i := range c.ffPre {
		nn.GELUInto(c.ffAct[i], c.ffPre[i])
	}
	c.ffnOuts = b.FF2.ForwardSeq(c.ffAct)
	c.res2In = addSeq(c.h1, c.ffnOuts)
	b.cache = c
	return b.LN2.ForwardSeq(c.res2In)
}

// addSeq returns the element-wise sums xs[i] + ys[i] as a new sequence.
func addSeq(xs, ys []mat.Vec) []mat.Vec {
	if len(xs) == 0 {
		return nil
	}
	out := nn.NewSeq(len(xs), len(xs[0]))
	for i, v := range out {
		copy(v, xs[i])
		v.Add(ys[i])
	}
	return out
}

// BackwardSeq backpropagates through the most recent ForwardSeq.
func (b *Block) BackwardSeq(dys []mat.Vec) []mat.Vec {
	c := b.cache
	dRes2 := b.LN2.BackwardSeq(dys)
	// res2 = h1 + FF2(gelu(FF1(h1)))
	dFFOut := dRes2 // gradient into FF2 output
	dFFAct := b.FF2.BackwardSeq(c.ffAct, dFFOut)
	dFFPre := nn.NewSeq(len(dys), b.FF1.Out)
	for i := range dFFAct {
		nn.GELUBackwardInto(dFFPre[i], c.ffPre[i], dFFAct[i])
	}
	dH1 := b.FF1.BackwardSeq(c.h1, dFFPre)
	for i := range dH1 {
		dH1[i].Add(dRes2[i]) // residual path
	}
	dRes1 := b.LN1.BackwardSeq(dH1)
	// res1 = x + attn(x): dRes1 is this call's own buffer and Attn has
	// consumed it, so the residual sum is formed in place.
	dAttn := b.Attn.BackwardSeq(dRes1)
	for i := range dRes1 {
		dRes1[i].Add(dAttn[i])
	}
	return dRes1
}
