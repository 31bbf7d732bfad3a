package nn

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"saccs/internal/mat"
)

// The taped forward and its backward must be bit-identical to the per-token
// reference: Linear.Forward/Backward, and the per-token LSTM below (the
// MulVec / MulVecT / AddOuter recurrence the GEMM version replaced). Each
// test runs the reference on one copy of a layer and the taped code on an
// identically initialized copy, for every sequence length in seqLens, on
// both kernel dispatch paths, and compares outputs, input gradients and the
// accumulated weight gradients for exact equality. Each length runs two
// forward/backward passes so G also accumulates onto a nonzero prior value;
// upstream gradients include all-zero and −0 rows, the entries the
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

// packRows copies a vector sequence into a matrix, one vector per row.
func packRows(vs []mat.Vec, cols int) *mat.Mat {
	m := mat.NewMat(len(vs), cols)
	for i, v := range vs {
		copy(m.Row(i), v)
	}
	return m
}

func TestLinearSeqMatchesPerToken(t *testing.T) {
	onBothKernelPaths(t, func(t *testing.T) {
		for _, dims := range [][2]int{{64, 64}, {64, 128}, {128, 64}, {64, 5}, {64, 400}, {31, 7}, {1, 1}} {
			ref := NewLinear(rand.New(rand.NewSource(21)), "t", dims[0], dims[1])
			got := NewLinear(rand.New(rand.NewSource(21)), "t", dims[0], dims[1])
			rng := rand.New(rand.NewSource(22))
			var tape Tape
			for _, n := range seqLens {
				xs := gradSeq(rng, n, dims[0])
				want := make([]mat.Vec, n)
				for i, x := range xs {
					want[i] = ref.Forward(x)
				}
				for pass := 0; pass < 2; pass++ {
					tape.Reset()
					y := got.ForwardRows(packRows(xs, dims[0]), &tape.Arena, &tape)
					requireSeqBits(t, "ForwardRows", want, rowsOf(y))
					dys := gradSeq(rng, n, dims[1])
					wantDx := make([]mat.Vec, n)
					for i := range xs {
						wantDx[i] = ref.Backward(xs[i], dys[i])
					}
					requireSeqBits(t, "BackwardRows dx", wantDx, rowsOf(got.BackwardRows(&tape, packRows(dys, dims[1]))))
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
			var tape Tape
			for _, n := range seqLens {
				xs := gradSeq(rng, n, dims[0])
				wantHs, steps := refLSTMForward(ref, xs)
				for pass := 0; pass < 2; pass++ {
					tape.Reset()
					hs := got.Forward(packRows(xs, dims[0]), &tape.Arena, &tape)
					requireSeqBits(t, "LSTM.Forward", wantHs, rowsOf(hs))
					dhs := gradSeq(rng, n, dims[1])
					dx := got.Backward(&tape, packRows(dhs, dims[1]))
					requireSeqBits(t, "LSTM.Backward dx", refLSTMBackward(ref, steps, dhs), rowsOf(dx))
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
		var tape Tape
		for _, n := range seqLens {
			xs := gradSeq(rng, n, 64)
			rev := make([]mat.Vec, n)
			for i, x := range xs {
				rev[n-1-i] = x
			}
			_, fSteps := refLSTMForward(ref.Fwd, xs)
			_, bSteps := refLSTMForward(ref.Bwd, rev)
			tape.Reset()
			out := got.Forward(packRows(xs, 64), &tape.Arena, &tape)
			requireSeqBits(t, "BiLSTM.Forward", refBiLSTMForward(ref, xs), rowsOf(out))
			dys := gradSeq(rng, n, 64)
			dF, dB := make([]mat.Vec, n), make([]mat.Vec, n)
			for i, d := range dys {
				dF[i], dB[n-1-i] = d[:32], d[32:]
			}
			dxF := refLSTMBackward(ref.Fwd, fSteps, dF)
			dxB := refLSTMBackward(ref.Bwd, bSteps, dB)
			want := make([]mat.Vec, n)
			for i := range want {
				v := slices.Clone(dxF[i])
				v.Add(dxB[n-1-i])
				want[i] = v
			}
			requireSeqBits(t, "BiLSTM.Backward dx", want, rowsOf(got.Backward(&tape, packRows(dys, 64))))
			requireParamGrads(t, ref.Params(), got.Params())
		}
	})
}

// TestTapePopEmptyPanics pins that a backward with nothing left on its
// tape fails with a message naming the rule, not an index out of range: a
// second Backward of one taped forward, here.
func TestTapePopEmptyPanics(t *testing.T) {
	l := NewLinear(rand.New(rand.NewSource(28)), "t", 4, 3)
	var tape Tape
	l.ForwardRows(packRows(gradSeq(rand.New(rand.NewSource(29)), 2, 4), 4), &tape.Arena, &tape)
	dy := packRows(gradSeq(rand.New(rand.NewSource(30)), 2, 3), 3)
	l.BackwardRows(&tape, dy)
	if tape.Len() != 0 {
		t.Fatalf("tape holds %d records after the backward, want 0", tape.Len())
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "empty tape") {
			t.Fatalf("second backward: recovered %q, want the empty-tape panic", msg)
		}
	}()
	l.BackwardRows(&tape, dy)
}

// refBiLSTMForward is the per-token BiLSTM forward: [fwd_t ; bwd_t] from
// refLSTMForward over the sequence and over its reverse.
func refBiLSTMForward(b *BiLSTM, xs []mat.Vec) []mat.Vec {
	n := len(xs)
	rev := make([]mat.Vec, n)
	for i, x := range xs {
		rev[n-1-i] = x
	}
	fh, _ := refLSTMForward(b.Fwd, xs)
	bh, _ := refLSTMForward(b.Bwd, rev)
	out := make([]mat.Vec, n)
	for i := range out {
		out[i] = append(slices.Clone(fh[i]), bh[n-1-i]...)
	}
	return out
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
			x: x, hPrev: slices.Clone(h), cPrev: slices.Clone(c),
			i: mat.NewVec(l.Hidden), f: mat.NewVec(l.Hidden),
			g: mat.NewVec(l.Hidden), o: mat.NewVec(l.Hidden),
			c: mat.NewVec(l.Hidden), tc: mat.NewVec(l.Hidden),
		}
		for j := 0; j < l.Hidden; j++ {
			st.i[j] = mat.Sigmoid(z[j])
			st.f[j] = mat.Sigmoid(z[l.Hidden+j])
			st.g[j] = math.Tanh(z[2*l.Hidden+j])
			st.o[j] = mat.Sigmoid(z[3*l.Hidden+j])
			st.c[j] = st.f[j]*st.cPrev[j] + st.i[j]*st.g[j]
			st.tc[j] = math.Tanh(st.c[j])
		}
		c = slices.Clone(st.c)
		h = mat.NewVec(l.Hidden)
		for j := 0; j < l.Hidden; j++ {
			h[j] = st.o[j] * st.tc[j]
		}
		hs[t] = slices.Clone(h)
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
		dh := slices.Clone(dhs[t])
		dh.Add(dhNext)
		dc := slices.Clone(dcNext)
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
