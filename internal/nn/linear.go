package nn

import (
	"math/rand"

	"saccs/internal/mat"
)

// Linear is a fully connected layer y = W·x + b.
type Linear struct {
	In, Out int
	Weight  *Param // Out×In
	Bias    *Param // 1×Out

	// pack caches Weightᵀ for the batched GEMM path, keyed on the weight
	// version (see packedTransposed); quant and f32 cache the frozen
	// reduced-precision inference copies the same way (see quant.go). Never
	// copy a Linear by value.
	pack  packSlot
	quant quantSlot[LinearQuant]
	f32   quantSlot[LinearF32]
}

// NewLinear returns a Xavier-initialized linear layer.
func NewLinear(rng *rand.Rand, name string, in, out int) *Linear {
	l := &Linear{
		In:     in,
		Out:    out,
		Weight: NewParam(name+".weight", out, in),
		Bias:   NewParam(name+".bias", 1, out),
	}
	XavierInit(rng, l.Weight)
	return l
}

// Params returns the layer's learnable tensors.
func (l *Linear) Params() []*Param { return []*Param{l.Weight, l.Bias} }

// Forward computes y = W·x + b for one vector: the per-token reference
// ForwardSeq is pinned against.
func (l *Linear) Forward(x mat.Vec) mat.Vec {
	y := mat.NewVec(l.Out)
	l.Weight.W.MulVec(y, x)
	y.Add(l.Bias.W.Row(0))
	return y
}

// Backward accumulates gradients given upstream dy and the forward input x,
// and returns dx: the per-token reference BackwardSeq is pinned against.
func (l *Linear) Backward(x, dy mat.Vec) mat.Vec {
	l.Weight.G.AddOuter(dy, x)
	l.Bias.G.Row(0).Add(dy)
	dx := mat.NewVec(l.In)
	l.Weight.W.MulVecT(dx, dy)
	return dx
}

// ForwardSeq applies the layer to each vector in xs as one GEMM,
// Y = X·Wᵀ + b — InferBatch's arithmetic, so row i is bit-identical to
// Forward(xs[i]). The returned vectors share one backing array.
func (l *Linear) ForwardSeq(xs []mat.Vec) []mat.Vec {
	a := getScratch()
	defer trainScratch.Put(a)
	y, ys := newSeqMat(len(xs), l.Out)
	mat.MatMulInto(&y, packSeq(a, xs, l.In), transposed(a, l.Weight.W))
	mat.AddRows(&y, l.Bias.W.Row(0))
	return ys
}

// BackwardSeq backpropagates a sequence of upstream gradients: the weight
// gradient as one accumulating GEMM, G_W += dYᵀ·X, with the tokens as its k
// dimension in sequence order (the order Backward's AddOuter calls add
// them), the bias gradient per token in the same order, and dX = dY·W as
// one GEMM. Every element is bit-identical to calling Backward per token.
func (l *Linear) BackwardSeq(xs, dys []mat.Vec) []mat.Vec {
	a := getScratch()
	defer trainScratch.Put(a)
	dy := packSeq(a, dys, l.Out)
	mat.MatMulAddInto(l.Weight.G, transposed(a, dy), packSeq(a, xs, l.In))
	gb := l.Bias.G.Row(0)
	for _, d := range dys {
		gb.Add(d)
	}
	dx, dxs := newSeqMat(len(dys), l.In)
	mat.MatMulInto(&dx, dy, l.Weight.W)
	return dxs
}
