package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"saccs/internal/mat"
)

// randLinearInput builds a Linear layer and a batch of input rows with
// activations in a realistic post-LayerNorm range.
func randLinearInput(t *testing.T, rng *rand.Rand, in, out, rows int) (*Linear, *mat.Mat32, [][]float64) {
	t.Helper()
	l := NewLinear(rng, "q", in, out)
	x32 := mat.NewMat32(rows, in)
	x64 := make([][]float64, rows)
	for r := 0; r < rows; r++ {
		x64[r] = make([]float64, in)
		row := x32.Row(r)
		for c := 0; c < in; c++ {
			v := rng.NormFloat64() * 2
			x64[r][c] = float64(float32(v))
			row[c] = float32(v)
		}
	}
	return l, x32, x64
}

// TestLinearQuantTracksFloat64 bounds the int8 and f32 batch kernels against
// the float64 Forward on the same inputs: the f32 tier must agree to float32
// rounding, the int8 tier to a small fraction of the output scale.
func TestLinearQuantTracksFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l, x32, x64 := randLinearInput(t, rng, 48, 24, 5)
	var a Arena
	a.Reset()
	q := l.InferQuantBatch(x32, &a)
	f := l.InferF32Batch(x32, &a)

	var scale, qErr, fErr float64
	for r := range x64 {
		want := l.Forward(mat.Vec(x64[r]))
		for j, w := range want {
			if aw := math.Abs(w); aw > scale {
				scale = aw
			}
			if d := math.Abs(float64(q.Row(r)[j]) - w); d > qErr {
				qErr = d
			}
			if d := math.Abs(float64(f.Row(r)[j]) - w); d > fErr {
				fErr = d
			}
		}
	}
	if fErr > 1e-4*scale {
		t.Fatalf("f32 kernel error %v over scale %v, want float32-rounding-level", fErr, scale)
	}
	if qErr > 0.02*scale {
		t.Fatalf("int8 kernel error %v over scale %v, want <= 2%% of scale", qErr, scale)
	}
}

// TestQuantSlotInvalidatesOnMutation pins the quantize-at-load invalidation
// protocol: the frozen copy is cached while the weights hold still and is
// rebuilt from the new weights after a Param mutation (what an optimizer
// step does via NoteMutated).
func TestQuantSlotInvalidatesOnMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	l := NewLinear(rng, "q", 8, 4)
	q1 := l.Quantize()
	if l.Quantize() != q1 {
		t.Fatal("unchanged weights rebuilt the frozen int8 copy")
	}
	f1 := l.Float32()
	if l.Float32() != f1 {
		t.Fatal("unchanged weights rebuilt the frozen f32 copy")
	}

	l.Weight.W.Data[0] += 1
	l.Weight.NoteMutated()
	q2 := l.Quantize()
	if q2 == q1 {
		t.Fatal("weight mutation did not invalidate the frozen int8 copy")
	}
	f2 := l.Float32()
	if f2 == f1 {
		t.Fatal("weight mutation did not invalidate the frozen f32 copy")
	}
	// The rebuilt copies reflect the mutated weights.
	wantW := float32(l.Weight.W.Data[0])
	if got := f2.W.Row(0)[0]; got != wantW {
		t.Fatalf("rebuilt f32 weight %v, want %v", got, wantW)
	}
}

func requireSameBits32(t *testing.T, what string, want, got []float32) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i, w := range want {
		if math.Float32bits(got[i]) != math.Float32bits(w) {
			t.Fatalf("%s: element %d = %v, want %v (bit-exact)", what, i, got[i], w)
		}
	}
}

// TestStackedQuantMatchesSeparateProjections: one quantization of the input
// and one GEMM against the stacked weight must give each layer exactly the
// columns its own InferQuantBatch (own quantization, own GEMM) gives it —
// weight rows are quantized independently, so stacking moves no bit.
func TestStackedQuantMatchesSeparateProjections(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ls := make([]*Linear, 3)
	var x *mat.Mat32
	for i := range ls {
		ls[i], x, _ = randLinearInput(t, rng, 40, 24+8*i, 7) // unequal Outs: 24, 32, 40
		for j := range ls[i].Bias.W.Data {
			ls[i].Bias.W.Data[j] = rng.NormFloat64()
		}
	}
	var a Arena
	a.Reset()
	var stack StackedQuant
	got := stack.Quantize(ls...).Apply(QuantizeActRows(x, &a), &a)
	off := 0
	for i, l := range ls {
		want := l.InferQuantBatch(x, &a)
		for r := 0; r < x.Rows; r++ {
			requireSameBits32(t, "stacked layer "+string(rune('0'+i)), want.Row(r), got.Row(r)[off:off+l.Out])
		}
		off += l.Out
	}
	if off != got.Cols {
		t.Fatalf("stack has %d columns, layers sum to %d", got.Cols, off)
	}
}

// inferQuant runs the LSTM alone over one already quantized sequence and
// writes each token's hidden state into columns [off, off+Hidden) of its
// row of out: the direction InferQuantBatch runs interleaved with the other
// one, as one mat.LSTMRecur32 call of its own.
func (l *LSTM) inferQuant(out *mat.Mat32, off int, xq QuantRows, a *Arena, reverse bool) {
	mat.LSTMRecur32(out, l.quantDir(xq, a, off, reverse))
}

// TestBiLSTMSharedQuantizationMatchesSeparate: the backward direction reads
// the forward direction's quantized rows from last to first. The reference is
// the same LSTM kernel run forward over an explicitly reversed, separately
// quantized copy of the input and un-reversed afterwards — what
// InferQuantBatch used to do.
func TestBiLSTMSharedQuantizationMatchesSeparate(t *testing.T) {
	onBothKernelPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(18))
		b := NewBiLSTM(rng, "t", 24, 16)
		H := b.Fwd.Hidden
		for _, n := range seqLens {
			xs, rev := mat.NewMat32(n, 24), mat.NewMat32(n, 24)
			for i := range xs.Data {
				xs.Data[i] = float32(rng.NormFloat64())
			}
			for i := 0; i < n; i++ {
				copy(rev.Row(n-1-i), xs.Row(i))
			}
			var a Arena
			got := b.InferQuantBatch(xs, &a)
			fwd, bwdRev := mat.NewMat32(n, H), mat.NewMat32(n, H)
			b.Fwd.inferQuant(fwd, 0, QuantizeActRows(xs, &a), &a, false)
			b.Bwd.inferQuant(bwdRev, 0, QuantizeActRows(rev, &a), &a, false)
			for i := 0; i < n; i++ {
				requireSameBits32(t, "forward half", fwd.Row(i), got.Row(i)[:H])
				requireSameBits32(t, "backward half", bwdRev.Row(n-1-i), got.Row(i)[H:])
			}
		}
	})
}

// TestGELURow32MatchesScalarForm pins the row GELU the quantized decode
// runs to the per-element expression it replaced, evaluated with a
// one-element TanhRow32.
func TestGELURow32MatchesScalarForm(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	x := make([]float32, 128+5)
	for i := range x {
		x[i] = float32(rng.NormFloat64() * 3)
	}
	x[0], x[1], x[2] = 0, 40, -40
	want := make([]float32, len(x))
	for i, v := range x {
		const c = 0.7978845608028654
		th := []float32{c * (v + 0.044715*v*v*v)}
		mat.TanhRow32(th, th)
		want[i] = 0.5 * v * (1 + th[0])
	}
	got := make([]float32, len(x))
	mat.GELURow32(got, x)
	requireSameBits32(t, "GELURow32", want, got)
}

// BenchmarkBiLSTMInferQuant is the served BiLSTM's reduced-precision forward
// (In = Dim 64, H = 32) over n tokens: the one input quantization, both
// directions' int8 projections and the recurrence, on the vector kernels
// and on the pure-Go ones. Run with
//
//	go test -run '^$' -bench BiLSTMInferQuant -cpu 1 ./internal/nn/
func BenchmarkBiLSTMInferQuant(b *testing.B) {
	rng := rand.New(rand.NewSource(20))
	l := NewBiLSTM(rng, "b", 64, 32)
	for _, n := range []int{13, 19, 48} {
		xs := mat.NewMat32(n, 64)
		for i := range xs.Data {
			xs.Data[i] = float32(rng.NormFloat64())
		}
		run := func(b *testing.B) {
			var a Arena
			for i := 0; i < b.N; i++ {
				a.Reset()
				l.InferQuantBatch(xs, &a)
			}
		}
		b.Run(fmt.Sprintf("%d/vector", n), run)
		b.Run(fmt.Sprintf("%d/scalar", n), func(b *testing.B) {
			defer mat.ForceScalar()()
			run(b)
		})
	}
}
