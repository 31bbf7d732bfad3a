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

	// packWx/packWh cache the transposed weights for the GEMM forward, keyed
	// on the weight versions (see packedTransposed); quant caches the frozen
	// reduced-precision copy (see quant.go). Never copy an LSTM by value.
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

// LSTMCache holds the forward pass state Backward needs, one token per row.
type LSTMCache struct {
	x     mat.Mat // n×In inputs
	gates mat.Mat // n×4H activations i, f, g, o
	c, tc mat.Mat // n×H cell states and tanh(c)
	h     mat.Mat // n×H hidden states (h_{t-1} is step t's recurrent input)
}

// Forward runs the LSTM over xs and returns the hidden state sequence plus
// the cache for Backward. Initial hidden and cell states are zero. The
// input projection Wx·x of every token is one GEMM before the recurrence;
// each step then adds its recurrent projection Wh·h_{t-1}, a one-row GEMM,
// and the bias as (Wx·x + Wh·h) + b — the per-token MulVec recurrence's
// operations in its order, so every value is bit-identical to it. The
// returned vectors are views of the cache: callers must not modify them.
func (l *LSTM) Forward(xs []mat.Vec) ([]mat.Vec, *LSTMCache) {
	n, H := len(xs), l.Hidden
	cache := &LSTMCache{}
	buf := make([]float64, n*(l.In+7*H)) // one backing array for the whole cache
	cut := func(m *mat.Mat, cols int) {
		*m = mat.Mat{Rows: n, Cols: cols, Data: buf[: n*cols : n*cols]}
		buf = buf[n*cols:]
	}
	cut(&cache.x, l.In)
	cut(&cache.gates, 4*H)
	cut(&cache.c, H)
	cut(&cache.tc, H)
	cut(&cache.h, H)
	if n == 0 {
		return nil, cache
	}
	for t, x := range xs {
		copy(cache.x.Row(t), x)
	}

	a := getScratch()
	defer trainScratch.Put(a)
	z := &cache.gates // holds Wx·x until each step overwrites its row with activations
	mat.MatMulInto(z, &cache.x, transposed(a, l.Wx.W))
	whT := transposed(a, l.Wh.W)
	zh := a.MatRaw(1, 4*H)
	hPrev := a.Mat(1, H)
	cPrev := a.Vec(H)
	bias := l.B.W.Row(0)
	for t := 0; t < n; t++ {
		mat.MatMulInto(zh, hPrev, whT)
		zr, zhr := z.Row(t), zh.Row(0)
		ct, tct, ht := cache.c.Row(t), cache.tc.Row(t), cache.h.Row(t)
		ig, fg, gg, og := gateActivations(zr, zhr, bias)
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
	return rowViews(&cache.h), cache
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

// Backward backpropagates upstream gradients dhs (one per timestep, aligned
// with the Forward output) through time, accumulating weight gradients and
// returning per-timestep input gradients.
//
// Only the recurrence stays per step: the gate gradients dz_t, the bias
// gradient and dh_{t-1} = Whᵀ·dz_t (a one-row GEMM). The weight gradients
// G_Wx += Σ dz_t·x_tᵀ and G_Wh += Σ dz_t·h_{t-1}ᵀ and every dx_t = Wxᵀ·dz_t
// are batched after the loop, with the GEMM's k dimension in the loop's
// order (t descending) — the order the per-token AddOuter calls added the
// terms — so every gradient is bit-identical to the per-token BPTT.
func (l *LSTM) Backward(cache *LSTMCache, dhs []mat.Vec) []mat.Vec {
	n, H := cache.x.Rows, l.Hidden
	if n == 0 {
		return nil
	}
	a := getScratch()
	defer trainScratch.Put(a)
	dZ := a.MatRaw(n, 4*H) // row r holds dz for step t = n-1-r
	dzRow := mat.Mat{Rows: 1, Cols: 4 * H}
	dhNext := a.Mat(1, H)
	dcNext := a.Vec(H)
	dh := a.Vec(H)
	zero := a.Vec(H) // c_{-1}
	gb := l.B.G.Row(0)
	for r := 0; r < n; r++ {
		t := n - 1 - r
		g, tc := cache.gates.Row(t), cache.tc.Row(t)
		cPrev := zero
		if t > 0 {
			cPrev = cache.c.Row(t - 1)
		}
		for j := 0; j < H; j++ {
			dh[j] = dhs[t][j] + dhNext.Data[j]
		}
		dz := dZ.Row(r)
		for j := 0; j < H; j++ {
			ig, fg, gg, og := g[j], g[H+j], g[2*H+j], g[3*H+j]
			do := dh[j] * tc[j]
			dtc := dh[j] * og * (1 - tc[j]*tc[j])
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
		if t > 0 {
			dzRow.Data = dz
			mat.MatMulInto(dhNext, &dzRow, l.Wh.W)
		}
	}

	// k = loop order: row r of the B operands is step n-1-r.
	dZT := transposed(a, dZ)
	xRev := a.MatRaw(n, l.In)
	hPrevRev := a.MatRaw(n, H)
	for r := 0; r < n; r++ {
		t := n - 1 - r
		copy(xRev.Row(r), cache.x.Row(t))
		if t > 0 {
			copy(hPrevRev.Row(r), cache.h.Row(t-1))
		} else {
			hPrevRev.Row(r).Zero()
		}
	}
	mat.MatMulAddInto(l.Wx.G, dZT, xRev)
	mat.MatMulAddInto(l.Wh.G, dZT, hPrevRev)
	dX := mat.Mat{Rows: n, Cols: l.In, Data: make([]float64, n*l.In)}
	mat.MatMulInto(&dX, dZ, l.Wx.W)
	dxs := make([]mat.Vec, n)
	for r := 0; r < n; r++ {
		dxs[n-1-r] = dX.Row(r)
	}
	return dxs
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

// BiLSTMCache holds both directions' forward caches.
type BiLSTMCache struct {
	fwd, bwd *LSTMCache
	n        int
}

// Forward returns per-token [fwd_t ; bwd_t] concatenations.
func (b *BiLSTM) Forward(xs []mat.Vec) ([]mat.Vec, *BiLSTMCache) {
	n := len(xs)
	fh, fc := b.Fwd.Forward(xs)
	rev := make([]mat.Vec, n)
	for i, x := range xs {
		rev[n-1-i] = x
	}
	bhRev, bc := b.Bwd.Forward(rev)
	out := NewSeq(n, b.OutDim())
	for t, v := range out {
		copy(v[:b.Fwd.Hidden], fh[t])
		copy(v[b.Fwd.Hidden:], bhRev[n-1-t])
	}
	return out, &BiLSTMCache{fwd: fc, bwd: bc, n: n}
}

// Backward splits the concatenated upstream gradients and backpropagates
// both directions, returning summed input gradients per token.
func (b *BiLSTM) Backward(cache *BiLSTMCache, dys []mat.Vec) []mat.Vec {
	n := cache.n
	dFwd := make([]mat.Vec, n)
	dBwdRev := make([]mat.Vec, n)
	for t := 0; t < n; t++ {
		dFwd[t] = dys[t][:b.Fwd.Hidden]
		dBwdRev[n-1-t] = dys[t][b.Fwd.Hidden:]
	}
	dxs := b.Fwd.Backward(cache.fwd, dFwd)
	dxBRev := b.Bwd.Backward(cache.bwd, dBwdRev)
	for t := 0; t < n; t++ {
		dxs[t].Add(dxBRev[n-1-t])
	}
	return dxs
}
