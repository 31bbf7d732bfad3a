package nn

import (
	"math/rand"
	"testing"

	"saccs/internal/mat"
)

// The float64 GEMM forwards must be bit-identical to the training Forward of
// the same layer: that one hop is what lets inference run on them while the
// goldens and the index stay defined by the training arithmetic. These tests
// run one sequence at a time — empty, single-token, a ragged middle, a full
// bert MaxLen window and beyond — and compare every output element for exact
// equality, on the vector kernels and with them forced off.

var seqLens = []int{0, 1, 7, 48, 60}

// onBothKernelPaths runs f on mat's vector kernels (where the CPU has them)
// and again on the pure-Go ones.
func onBothKernelPaths(t *testing.T, f func(t *testing.T)) {
	t.Run("vector", f)
	t.Run("scalar", func(t *testing.T) {
		defer mat.ForceScalar()()
		f(t)
	})
}

// seqMat lays a random sequence out one token per row and returns the rows
// as the training forward's []mat.Vec view of the same memory.
func seqMat(rng *rand.Rand, n, dim int) (*mat.Mat, []mat.Vec) {
	x := mat.NewMat(n, dim)
	seq := make([]mat.Vec, n)
	for t := range seq {
		seq[t] = x.Row(t)
		copy(seq[t], randVec(rng, dim))
	}
	return x, seq
}

func requireRowsEqual(t *testing.T, name string, want []mat.Vec, got *mat.Mat) {
	t.Helper()
	if got.Rows != len(want) {
		t.Fatalf("%s: %d rows, want %d", name, got.Rows, len(want))
	}
	for r, w := range want {
		g := got.Row(r)
		if len(g) != len(w) {
			t.Fatalf("%s: token %d: length %d want %d", name, r, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("%s: token %d elem %d = %v, want %v (bit-exact)", name, r, i, g[i], w[i])
			}
		}
	}
}

func TestLinearInferBatchMatchesForward(t *testing.T) {
	onBothKernelPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		for _, dims := range [][2]int{{64, 128}, {64, 5}, {31, 7}, {1, 1}} {
			l := NewLinear(rng, "t", dims[0], dims[1])
			for j := range l.Bias.W.Data {
				l.Bias.W.Data[j] = rng.NormFloat64()
			}
			for _, n := range seqLens {
				x, seq := seqMat(rng, n, dims[0])
				var a Arena
				requireRowsEqual(t, "Linear.InferBatch", l.ForwardSeq(seq), l.InferBatch(x, &a))
			}
		}
	})
}

func TestLSTMInferBatchMatchesForward(t *testing.T) {
	onBothKernelPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(12))
		l := NewLSTM(rng, "t", 16, 8)
		for _, n := range seqLens {
			x, seq := seqMat(rng, n, 16)
			want, _ := l.Forward(seq)
			var a Arena
			requireRowsEqual(t, "LSTM.InferBatch", want, l.InferBatch(x, &a))
		}
	})
}

func TestBiLSTMInferBatchMatchesForward(t *testing.T) {
	onBothKernelPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(13))
		b := NewBiLSTM(rng, "t", 16, 8)
		for _, n := range seqLens {
			x, seq := seqMat(rng, n, 16)
			want, _ := b.Forward(seq)
			var a Arena
			requireRowsEqual(t, "BiLSTM.InferBatch", want, b.InferBatch(x, &a))
		}
	})
}

func TestArenaMat(t *testing.T) {
	var a Arena
	m := a.Mat(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("Mat(3,4) = %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	for i := range m.Data {
		m.Data[i] = 7
	}
	m2 := a.Mat(2, 2)
	for _, x := range m2.Data {
		if x != 0 {
			t.Fatal("arena Mat not zeroed")
		}
	}
	a.Reset()
	m3 := a.Mat(1, 1)
	for _, x := range m3.Data {
		if x != 0 {
			t.Fatal("arena Mat not zeroed after Reset")
		}
	}
}
