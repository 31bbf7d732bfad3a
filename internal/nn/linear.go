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

	// pack caches Weightᵀ for the inference forward, keyed on the weight
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
// ForwardRows is pinned against.
func (l *Linear) Forward(x mat.Vec) mat.Vec {
	y := mat.NewVec(l.Out)
	l.Weight.W.MulVec(y, x)
	y.Add(l.Bias.W.Row(0))
	return y
}

// Backward accumulates gradients given upstream dy and the forward input x,
// and returns dx: the per-token reference BackwardRows is pinned against.
func (l *Linear) Backward(x, dy mat.Vec) mat.Vec {
	l.Weight.G.AddOuter(dy, x)
	l.Bias.G.Row(0).Add(dy)
	dx := mat.NewVec(l.In)
	l.Weight.W.MulVecT(dx, dy)
	return dx
}

// ForwardRows computes Y = X·Wᵀ + b for a sequence, a token per row of x,
// into rows carved from a. Row i is bit-identical to Forward(x_i): the GEMM
// accumulates each output element's products in ascending k order, exactly
// like MulVec, and the bias adds after the full dot, exactly like Forward.
// With a tape it records x for BackwardRows.
func (l *Linear) ForwardRows(x *mat.Mat, a *Arena, t *Tape) *mat.Mat {
	y := a.MatRaw(x.Rows, l.Out)
	mat.MatMulInto(y, x, weightT(&l.pack, l.Weight, a, t))
	mat.AddRows(y, l.Bias.W.Row(0))
	if t != nil {
		t.Push(x)
	}
	return y
}

// BackwardRows pops the input ForwardRows recorded and backpropagates the
// upstream gradients dy, a row per token: the weight gradient as one
// accumulating GEMM, G_W += dYᵀ·X, with the tokens as its k dimension in
// sequence order (the order Backward's AddOuter calls add them), the bias
// gradient per token in the same order, and dX = dY·W as one GEMM. Every
// element is bit-identical to calling Backward per token.
func (l *Linear) BackwardRows(t *Tape, dy *mat.Mat) *mat.Mat {
	x := t.Pop()
	mat.MatMulAddInto(l.Weight.G, transposed(&t.Arena, dy), x)
	gb := l.Bias.G.Row(0)
	for i := 0; i < dy.Rows; i++ {
		gb.Add(dy.Row(i))
	}
	dx := t.MatRaw(dy.Rows, l.In)
	mat.MatMulInto(dx, dy, l.Weight.W)
	return dx
}
