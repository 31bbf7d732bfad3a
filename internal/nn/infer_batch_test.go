package nn

import (
	"math/rand"
	"testing"

	"saccs/internal/mat"
)

// The float64 forward with no tape — the one inference runs — must be
// bit-identical to the per-token reference of the same layer (Linear.Forward,
// the per-token LSTM of train_test.go): that one hop is what lets the GEMM
// forward serve while the goldens and the index stay defined by the
// per-token arithmetic. These tests run one sequence at a time — empty,
// single-token, a ragged middle, a full bert MaxLen window and beyond — and
// compare every output element for exact equality, on the vector kernels
// and with them forced off. train_test.go pins the taped forward and its
// backward against the same references.

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
// as a vector sequence over the same memory.
func seqMat(rng *rand.Rand, n, dim int) (*mat.Mat, []mat.Vec) {
	x := mat.NewMat(n, dim)
	seq := make([]mat.Vec, n)
	for t := range seq {
		seq[t] = x.Row(t)
		copy(seq[t], randVec(rng, dim))
	}
	return x, seq
}

// rowsOf views the rows of m as vectors.
func rowsOf(m *mat.Mat) []mat.Vec {
	rows := make([]mat.Vec, m.Rows)
	for i := range rows {
		rows[i] = m.Row(i)
	}
	return rows
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
				want := make([]mat.Vec, n)
				for i, v := range seq {
					want[i] = l.Forward(v)
				}
				var a Arena
				requireSeqBits(t, "Linear.ForwardRows", want, rowsOf(l.ForwardRows(x, &a, nil)))
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
			want, _ := refLSTMForward(l, seq)
			var a Arena
			requireSeqBits(t, "LSTM.Forward", want, rowsOf(l.Forward(x, &a, nil)))
		}
	})
}

func TestBiLSTMInferBatchMatchesForward(t *testing.T) {
	onBothKernelPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(13))
		b := NewBiLSTM(rng, "t", 16, 8)
		for _, n := range seqLens {
			x, seq := seqMat(rng, n, 16)
			var a Arena
			requireSeqBits(t, "BiLSTM.Forward", refBiLSTMForward(b, seq), rowsOf(b.Forward(x, &a, nil)))
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
