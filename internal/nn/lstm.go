package nn

import (
	"math"
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

// lstmStep caches one timestep's forward intermediates for BPTT.
type lstmStep struct {
	x, hPrev, cPrev mat.Vec
	i, f, g, o      mat.Vec
	c, tc           mat.Vec // cell state and tanh(c)
}

// LSTMCache holds the forward pass state needed by Backward.
type LSTMCache struct {
	steps []lstmStep
}

// Forward runs the LSTM over xs and returns the hidden state sequence plus
// the cache for Backward. Initial hidden and cell states are zero.
func (l *LSTM) Forward(xs []mat.Vec) ([]mat.Vec, *LSTMCache) {
	h := mat.NewVec(l.Hidden)
	c := mat.NewVec(l.Hidden)
	hs := make([]mat.Vec, len(xs))
	cache := &LSTMCache{steps: make([]lstmStep, len(xs))}
	z := mat.NewVec(4 * l.Hidden)
	tmp := mat.NewVec(4 * l.Hidden)
	for t, x := range xs {
		l.Wx.W.MulVec(z, x)
		l.Wh.W.MulVec(tmp, h)
		z.Add(tmp)
		z.Add(l.B.W.Row(0))
		st := lstmStep{
			x: x, hPrev: h.Clone(), cPrev: c.Clone(),
			i: mat.NewVec(l.Hidden), f: mat.NewVec(l.Hidden),
			g: mat.NewVec(l.Hidden), o: mat.NewVec(l.Hidden),
			c: mat.NewVec(l.Hidden), tc: mat.NewVec(l.Hidden),
		}
		for j := 0; j < l.Hidden; j++ {
			st.i[j] = Sigmoid(z[j])
			st.f[j] = Sigmoid(z[l.Hidden+j])
			st.g[j] = math.Tanh(z[2*l.Hidden+j])
			st.o[j] = Sigmoid(z[3*l.Hidden+j])
			st.c[j] = st.f[j]*st.cPrev[j] + st.i[j]*st.g[j]
			st.tc[j] = math.Tanh(st.c[j])
		}
		c = st.c.Clone()
		h = mat.NewVec(l.Hidden)
		for j := 0; j < l.Hidden; j++ {
			h[j] = st.o[j] * st.tc[j]
		}
		hs[t] = h.Clone()
		cache.steps[t] = st
	}
	return hs, cache
}

// Backward backpropagates upstream gradients dhs (one per timestep, aligned
// with the Forward output) through time, accumulating weight gradients and
// returning per-timestep input gradients.
func (l *LSTM) Backward(cache *LSTMCache, dhs []mat.Vec) []mat.Vec {
	n := len(cache.steps)
	dxs := make([]mat.Vec, n)
	dhNext := mat.NewVec(l.Hidden)
	dcNext := mat.NewVec(l.Hidden)
	dz := mat.NewVec(4 * l.Hidden)
	for t := n - 1; t >= 0; t-- {
		st := cache.steps[t]
		dh := dhs[t].Clone()
		dh.Add(dhNext)
		dc := dcNext.Clone()
		for j := 0; j < l.Hidden; j++ {
			do := dh[j] * st.tc[j]
			dtc := dh[j] * st.o[j] * (1 - st.tc[j]*st.tc[j])
			dcj := dc[j] + dtc
			df := dcj * st.cPrev[j]
			di := dcj * st.g[j]
			dg := dcj * st.i[j]
			dcNext[j] = dcj * st.f[j]
			dz[j] = di * st.i[j] * (1 - st.i[j])
			dz[l.Hidden+j] = df * st.f[j] * (1 - st.f[j])
			dz[2*l.Hidden+j] = dg * (1 - st.g[j]*st.g[j])
			dz[3*l.Hidden+j] = do * st.o[j] * (1 - st.o[j])
		}
		l.Wx.G.AddOuter(dz, st.x)
		l.Wh.G.AddOuter(dz, st.hPrev)
		l.B.G.Row(0).Add(dz)
		dx := mat.NewVec(l.In)
		l.Wx.W.MulVecT(dx, dz)
		dxs[t] = dx
		l.Wh.W.MulVecT(dhNext, dz)
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
	out := make([]mat.Vec, n)
	for t := 0; t < n; t++ {
		v := mat.NewVec(b.OutDim())
		copy(v[:b.Fwd.Hidden], fh[t])
		copy(v[b.Fwd.Hidden:], bhRev[n-1-t])
		out[t] = v
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
		dFwd[t] = mat.Vec(dys[t][:b.Fwd.Hidden]).Clone()
		dBwdRev[n-1-t] = mat.Vec(dys[t][b.Fwd.Hidden:]).Clone()
	}
	dxF := b.Fwd.Backward(cache.fwd, dFwd)
	dxBRev := b.Bwd.Backward(cache.bwd, dBwdRev)
	dxs := make([]mat.Vec, n)
	for t := 0; t < n; t++ {
		dx := dxF[t].Clone()
		dx.Add(dxBRev[n-1-t])
		dxs[t] = dx
	}
	return dxs
}
