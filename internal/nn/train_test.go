package nn

import (
	"math"
	"math/rand"
	"testing"

	"saccs/internal/mat"
)

// The batched training forward and backward (train.go) must be bit-identical
// to the per-token reference: Linear.Forward/Backward, and the per-token
// LSTM below (the MulVec / MulVecT / AddOuter recurrence the GEMM version
// replaced). Each test runs the reference on one copy of a layer and the
// batched code on an identically initialized copy, for every sequence
// length in seqLens, on both kernel dispatch paths, and compares outputs,
// input gradients and the accumulated weight gradients for exact equality.
// Backward runs twice per length so G also accumulates onto a nonzero prior
// value; upstream gradients include all-zero and −0 rows, the entries the
// zero-skipping reference kernels skip.

// gradSeq returns n random upstream gradients of width dim, with row 1 all
// +0, row 2 all −0 and every fifth entry elsewhere −0.
func gradSeq(rng *rand.Rand, n, dim int) []mat.Vec {
	negZero := math.Copysign(0, -1)
	out := make([]mat.Vec, n)
	for t := range out {
		v := randVec(rng, dim)
		for j := range v {
			switch {
			case t == 1:
				v[j] = 0
			case t == 2, j%5 == 4:
				v[j] = negZero
			}
		}
		out[t] = v
	}
	return out
}

func requireSeqBits(t *testing.T, name string, want, got []mat.Vec) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d vectors, want %d", name, len(got), len(want))
	}
	for r := range want {
		requireBits(t, name, want[r], got[r])
	}
}

func requireBits(t *testing.T, name string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d, want %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: element %d = %v, want %v (bit-exact)", name, i, got[i], want[i])
		}
	}
}

func requireParamGrads(t *testing.T, want, got []*Param) {
	t.Helper()
	for i := range want {
		requireBits(t, want[i].Name+" grad", want[i].G.Data, got[i].G.Data)
	}
}

func TestLinearSeqMatchesPerToken(t *testing.T) {
	onBothKernelPaths(t, func(t *testing.T) {
		for _, dims := range [][2]int{{64, 64}, {64, 128}, {128, 64}, {64, 5}, {64, 400}, {31, 7}, {1, 1}} {
			ref := NewLinear(rand.New(rand.NewSource(21)), "t", dims[0], dims[1])
			got := NewLinear(rand.New(rand.NewSource(21)), "t", dims[0], dims[1])
			rng := rand.New(rand.NewSource(22))
			for _, n := range seqLens {
				xs := gradSeq(rng, n, dims[0])
				want := make([]mat.Vec, n)
				for i, x := range xs {
					want[i] = ref.Forward(x)
				}
				requireSeqBits(t, "ForwardSeq", want, got.ForwardSeq(xs))
				for pass := 0; pass < 2; pass++ {
					dys := gradSeq(rng, n, dims[1])
					wantDx := make([]mat.Vec, n)
					for i := range xs {
						wantDx[i] = ref.Backward(xs[i], dys[i])
					}
					requireSeqBits(t, "BackwardSeq dx", wantDx, got.BackwardSeq(xs, dys))
					requireParamGrads(t, ref.Params(), got.Params())
				}
			}
		}
	})
}

func TestLSTMMatchesPerToken(t *testing.T) {
	onBothKernelPaths(t, func(t *testing.T) {
		for _, dims := range [][2]int{{64, 32}, {16, 8}, {3, 1}} {
			ref := NewLSTM(rand.New(rand.NewSource(23)), "t", dims[0], dims[1])
			got := NewLSTM(rand.New(rand.NewSource(23)), "t", dims[0], dims[1])
			rng := rand.New(rand.NewSource(24))
			for _, n := range seqLens {
				xs := gradSeq(rng, n, dims[0])
				wantHs, steps := refLSTMForward(ref, xs)
				hs, cache := got.Forward(xs)
				requireSeqBits(t, "LSTM.Forward", wantHs, hs)
				for pass := 0; pass < 2; pass++ {
					dhs := gradSeq(rng, n, dims[1])
					requireSeqBits(t, "LSTM.Backward dx", refLSTMBackward(ref, steps, dhs), got.Backward(cache, dhs))
					requireParamGrads(t, ref.Params(), got.Params())
				}
			}
		}
	})
}

func TestBiLSTMMatchesPerToken(t *testing.T) {
	onBothKernelPaths(t, func(t *testing.T) {
		ref := NewBiLSTM(rand.New(rand.NewSource(25)), "t", 64, 32)
		got := NewBiLSTM(rand.New(rand.NewSource(25)), "t", 64, 32)
		rng := rand.New(rand.NewSource(26))
		for _, n := range seqLens {
			xs := gradSeq(rng, n, 64)
			rev := make([]mat.Vec, n)
			for i, x := range xs {
				rev[n-1-i] = x
			}
			fh, fSteps := refLSTMForward(ref.Fwd, xs)
			bh, bSteps := refLSTMForward(ref.Bwd, rev)
			out, cache := got.Forward(xs)
			for i := range xs {
				requireBits(t, "BiLSTM.Forward fwd", fh[i], out[i][:32])
				requireBits(t, "BiLSTM.Forward bwd", bh[n-1-i], out[i][32:])
			}
			dys := gradSeq(rng, n, 64)
			dF, dB := make([]mat.Vec, n), make([]mat.Vec, n)
			for i, d := range dys {
				dF[i], dB[n-1-i] = d[:32], d[32:]
			}
			dxF := refLSTMBackward(ref.Fwd, fSteps, dF)
			dxB := refLSTMBackward(ref.Bwd, bSteps, dB)
			want := make([]mat.Vec, n)
			for i := range want {
				v := dxF[i].Clone()
				v.Add(dxB[n-1-i])
				want[i] = v
			}
			requireSeqBits(t, "BiLSTM.Backward dx", want, got.Backward(cache, dys))
			requireParamGrads(t, ref.Params(), got.Params())
		}
	})
}

// refStep is one timestep of the per-token reference LSTM.
type refStep struct {
	x, hPrev, cPrev mat.Vec
	i, f, g, o      mat.Vec
	c, tc           mat.Vec
}

// refLSTMForward is the per-token LSTM forward: z = (Wx·x + Wh·h) + b with
// one MulVec per projection per step.
func refLSTMForward(l *LSTM, xs []mat.Vec) ([]mat.Vec, []refStep) {
	h := mat.NewVec(l.Hidden)
	c := mat.NewVec(l.Hidden)
	hs := make([]mat.Vec, len(xs))
	steps := make([]refStep, len(xs))
	z := mat.NewVec(4 * l.Hidden)
	tmp := mat.NewVec(4 * l.Hidden)
	for t, x := range xs {
		l.Wx.W.MulVec(z, x)
		l.Wh.W.MulVec(tmp, h)
		z.Add(tmp)
		z.Add(l.B.W.Row(0))
		st := refStep{
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
		steps[t] = st
	}
	return hs, steps
}

// refLSTMBackward is the per-token BPTT: AddOuter into G_Wx and G_Wh and a
// MulVecT for dx and dh per step, t descending.
func refLSTMBackward(l *LSTM, steps []refStep, dhs []mat.Vec) []mat.Vec {
	n := len(steps)
	dxs := make([]mat.Vec, n)
	dhNext := mat.NewVec(l.Hidden)
	dcNext := mat.NewVec(l.Hidden)
	dz := mat.NewVec(4 * l.Hidden)
	for t := n - 1; t >= 0; t-- {
		st := steps[t]
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
