package nn

import (
	"math/rand"

	"saccs/internal/mat"
)

// LSTM is a single-direction long short-term memory layer [16] run over a
// full sequence with exact backpropagation through time.
type LSTM struct {
	In, Hidden int
	Wx         *Param // 4H×In, gate order (i, f, g, o)
	Wh         *Param // 4H×H
	B          *Param // 1×4H

	// packWx/packWh cache the transposed weights for the inference forward,
	// keyed on the weight versions (see packedTransposed); quant caches the
	// frozen reduced-precision copy (see quant.go). Never copy an LSTM by
	// value.
	packWx, packWh packSlot
	quant          quantSlot[LSTMQuant]
}

// NewLSTM returns an LSTM with Xavier weights and forget-gate bias 1.
func NewLSTM(rng *rand.Rand, name string, in, hidden int) *LSTM {
	l := &LSTM{
		In:     in,
		Hidden: hidden,
		Wx:     NewParam(name+".wx", 4*hidden, in),
		Wh:     NewParam(name+".wh", 4*hidden, hidden),
		B:      NewParam(name+".b", 1, 4*hidden),
	}
	XavierInit(rng, l.Wx)
	XavierInit(rng, l.Wh)
	// Forget-gate bias of 1 keeps early gradients alive.
	for j := hidden; j < 2*hidden; j++ {
		l.B.W.Set(0, j, 1)
	}
	return l
}

// Params returns the layer's learnable tensors.
func (l *LSTM) Params() []*Param { return []*Param{l.Wx, l.Wh, l.B} }

// Forward runs the LSTM over a sequence, a token per row of x, and returns
// the hidden states in the same layout, every matrix carved from a. Initial
// hidden and cell states are zero. The input projection Wx·x of every token
// is one GEMM before the recurrence; each step then adds its recurrent
// projection Wh·h_{t-1}, a one-row GEMM, and the bias as (Wx·x + Wh·h) + b —
// the per-token MulVec recurrence's operations in its order, so every value
// is bit-identical to it. With a tape it records x, the gate activations,
// the cell states c, tanh(c) and the hidden states for Backward.
func (l *LSTM) Forward(x *mat.Mat, a *Arena, t *Tape) *mat.Mat {
	n, H := x.Rows, l.Hidden
	z := a.MatRaw(n, 4*H) // Wx·x until each step overwrites its row with the gates
	c, tc, h := a.MatRaw(n, H), a.MatRaw(n, H), a.MatRaw(n, H)
	if t != nil {
		t.Push(x, z, c, tc, h)
	}
	if n == 0 {
		return h
	}
	mat.MatMulInto(z, x, weightT(&l.packWx, l.Wx, a, t))
	whT := weightT(&l.packWh, l.Wh, a, t)
	zh := a.MatRaw(1, 4*H)
	hPrev := a.Mat(1, H)
	cPrev := a.Vec(H)
	bias := l.B.W.Row(0)
	for s := 0; s < n; s++ {
		mat.MatMulInto(zh, hPrev, whT)
		ct, tct, ht := c.Row(s), tc.Row(s), h.Row(s)
		ig, fg, gg, og := gateActivations(z.Row(s), zh.Row(0), bias)
		for j := range ct {
			ct[j] = fg[j]*cPrev[j] + ig[j]*gg[j]
		}
		mat.TanhRow(tct, ct)
		for j := range ht {
			ht[j] = og[j] * tct[j]
		}
		cPrev = ct
		hPrev.Data = ht
	}
	return h
}

// gateActivations turns one step's 4H gate row into the gates in place:
// z = (z + zh) + b, then Sigmoid over i and f, tanh over g and Sigmoid over o
// as three row kernels, the per-element calls' arithmetic. It returns the
// four H-wide gate views of z.
func gateActivations(z, zh, bias mat.Vec) (ig, fg, gg, og mat.Vec) {
	H := len(z) / 4
	for j := range z {
		z[j] = (z[j] + zh[j]) + bias[j]
	}
	mat.SigmoidRow(z[:2*H], z[:2*H])
	mat.TanhRow(z[2*H:3*H], z[2*H:3*H])
	mat.SigmoidRow(z[3*H:], z[3*H:])
	return z[:H], z[H : 2*H], z[2*H : 3*H], z[3*H:]
}

// Backward pops what Forward recorded and backpropagates the upstream
// gradients dh (a row per timestep, aligned with the Forward output) through
// time, accumulating weight gradients and returning the input gradients in
// the same layout.
//
// Only the recurrence stays per step: the gate gradients dz_t, the bias
// gradient and dh_{t-1} = Whᵀ·dz_t (a one-row GEMM). The weight gradients
// G_Wx += Σ dz_t·x_tᵀ and G_Wh += Σ dz_t·h_{t-1}ᵀ and every dx_t = Wxᵀ·dz_t
// are batched after the loop, with the GEMM's k dimension in the loop's
// order (t descending) — the order the per-token AddOuter calls added the
// terms — so every gradient is bit-identical to the per-token BPTT.
func (l *LSTM) Backward(t *Tape, dh *mat.Mat) *mat.Mat {
	h, tc, c, gates, x := t.Pop(), t.Pop(), t.Pop(), t.Pop(), t.Pop()
	n, H := x.Rows, l.Hidden
	dx := t.MatRaw(n, l.In)
	if n == 0 {
		return dx
	}
	a := &t.Arena
	dZ := a.MatRaw(n, 4*H) // row r holds dz for step s = n-1-r
	dzRow := mat.Mat{Rows: 1, Cols: 4 * H}
	dhNext := a.Mat(1, H)
	dcNext := a.Vec(H)
	dhs := a.Vec(H)
	zero := a.Vec(H) // c_{-1}
	gb := l.B.G.Row(0)
	for r := 0; r < n; r++ {
		s := n - 1 - r
		g, tcs, up := gates.Row(s), tc.Row(s), dh.Row(s)
		cPrev := zero
		if s > 0 {
			cPrev = c.Row(s - 1)
		}
		for j := 0; j < H; j++ {
			dhs[j] = up[j] + dhNext.Data[j]
		}
		dz := dZ.Row(r)
		for j := 0; j < H; j++ {
			ig, fg, gg, og := g[j], g[H+j], g[2*H+j], g[3*H+j]
			do := dhs[j] * tcs[j]
			dtc := dhs[j] * og * (1 - tcs[j]*tcs[j])
			dcj := dcNext[j] + dtc
			df := dcj * cPrev[j]
			di := dcj * gg
			dg := dcj * ig
			dcNext[j] = dcj * fg
			dz[j] = di * ig * (1 - ig)
			dz[H+j] = df * fg * (1 - fg)
			dz[2*H+j] = dg * (1 - gg*gg)
			dz[3*H+j] = do * og * (1 - og)
		}
		gb.Add(dz)
		if s > 0 {
			dzRow.Data = dz
			mat.MatMulInto(dhNext, &dzRow, l.Wh.W)
		}
	}

	// k = loop order: row r of the B operands is step n-1-r.
	dZT := transposed(a, dZ)
	xRev := a.MatRaw(n, l.In)
	hPrevRev := a.MatRaw(n, H)
	for r := 0; r < n; r++ {
		s := n - 1 - r
		copy(xRev.Row(r), x.Row(s))
		if s > 0 {
			copy(hPrevRev.Row(r), h.Row(s-1))
		} else {
			hPrevRev.Row(r).Zero()
		}
	}
	mat.MatMulAddInto(l.Wx.G, dZT, xRev)
	mat.MatMulAddInto(l.Wh.G, dZT, hPrevRev)
	dXRev := a.MatRaw(n, l.In)
	mat.MatMulInto(dXRev, dZ, l.Wx.W)
	for r := 0; r < n; r++ {
		copy(dx.Row(n-1-r), dXRev.Row(r))
	}
	return dx
}

// BiLSTM runs a forward and a backward LSTM over the sequence and
// concatenates their hidden states per token (§4.1, following [8, 35]).
type BiLSTM struct {
	Fwd, Bwd *LSTM
}

// NewBiLSTM returns a bidirectional LSTM whose output dimension is 2·hidden.
func NewBiLSTM(rng *rand.Rand, name string, in, hidden int) *BiLSTM {
	return &BiLSTM{
		Fwd: NewLSTM(rng, name+".fwd", in, hidden),
		Bwd: NewLSTM(rng, name+".bwd", in, hidden),
	}
}

// Params returns the learnable tensors of both directions.
func (b *BiLSTM) Params() []*Param { return append(b.Fwd.Params(), b.Bwd.Params()...) }

// OutDim returns the concatenated output dimension.
func (b *BiLSTM) OutDim() int { return b.Fwd.Hidden + b.Bwd.Hidden }

// Forward runs both directions over a sequence (see LSTM.Forward for the
// layout) and returns per-token [fwd_t ; bwd_t] concatenations. With a tape
// each direction records itself, forward first.
func (b *BiLSTM) Forward(x *mat.Mat, a *Arena, t *Tape) *mat.Mat {
	n := x.Rows
	fh := b.Fwd.Forward(x, a, t)
	rev := a.MatRaw(n, x.Cols)
	for i := 0; i < n; i++ {
		copy(rev.Row(n-1-i), x.Row(i))
	}
	bhRev := b.Bwd.Forward(rev, a, t)
	H := b.Fwd.Hidden
	out := a.MatRaw(n, b.OutDim())
	for s := 0; s < n; s++ {
		v := out.Row(s)
		copy(v[:H], fh.Row(s))
		copy(v[H:], bhRev.Row(n-1-s))
	}
	return out
}

// Backward splits the concatenated upstream gradients, backpropagates both
// directions (backward first: the tape pops in reverse) and returns the
// summed input gradients per token, fwd_t + bwd_t.
func (b *BiLSTM) Backward(t *Tape, dy *mat.Mat) *mat.Mat {
	n, H := dy.Rows, b.Fwd.Hidden
	dFwd, dBwdRev := t.MatRaw(n, H), t.MatRaw(n, b.Bwd.Hidden)
	for s := 0; s < n; s++ {
		copy(dFwd.Row(s), dy.Row(s)[:H])
		copy(dBwdRev.Row(n-1-s), dy.Row(s)[H:])
	}
	dxBRev := b.Bwd.Backward(t, dBwdRev)
	dx := b.Fwd.Backward(t, dFwd)
	for s := 0; s < n; s++ {
		dx.Row(s).Add(dxBRev.Row(n - 1 - s))
	}
	return dx
}
