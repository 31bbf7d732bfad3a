package nn

import (
	"math/rand"
	"testing"

	"saccs/internal/mat"
)

// The float64 GEMM forwards must be bit-identical to the training Forward of
// the same layer, per sequence, whatever else shares the packed batch: that
// one hop is what lets inference run on them while the goldens and the index
// stay defined by the training arithmetic. These tests pack adversarial
// length mixes (empty, single-token, a full MaxLen window and beyond, ragged
// batches) and compare every output element for exact equality, on the
// vector kernels and with them forced off.

var batchLenMixes = [][]int{
	{0}, {1}, {7}, {48}, {60},
	{3},
	{1, 1},
	{5, 3},
	{0, 4},
	{4, 0, 1, 7},
	{13, 13, 13, 13},
	{2, 9, 1, 0, 6, 3, 12, 5},
}

// onBothKernelPaths runs f on mat's vector kernels (where the CPU has them)
// and again on the pure-Go ones.
func onBothKernelPaths(t *testing.T, f func(t *testing.T)) {
	t.Run("vector", f)
	t.Run("scalar", func(t *testing.T) {
		defer mat.ForceScalar()()
		f(t)
	})
}

// packSeqs lays out sequences one token per row and returns the serial-view
// slices alongside the packed matrix.
func packSeqs(rng *rand.Rand, lens []int, dim int) (*mat.Mat, []int, [][]mat.Vec) {
	total := 0
	starts := make([]int, len(lens))
	for s, n := range lens {
		starts[s] = total
		total += n
	}
	x := mat.NewMat(total, dim)
	seqs := make([][]mat.Vec, len(lens))
	for s, n := range lens {
		seqs[s] = make([]mat.Vec, n)
		for t := 0; t < n; t++ {
			row := x.Row(starts[s] + t)
			copy(row, randVec(rng, dim))
			seqs[s][t] = row
		}
	}
	return x, starts, seqs
}

func requireRowsEqual(t *testing.T, name string, s, seq int, want mat.Vec, got mat.Vec) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: seq %d token %d: length %d want %d", name, s, seq, len(got), len(want))
	}
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("%s: seq %d token %d elem %d = %v, want %v (bit-exact)", name, s, seq, i, got[i], w)
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
			for _, lens := range batchLenMixes {
				x, _, _ := packSeqs(rng, lens, dims[0])
				var a Arena
				y := l.InferBatch(x, &a)
				if y.Rows != x.Rows {
					t.Fatalf("Linear.InferBatch: %d rows for %d inputs", y.Rows, x.Rows)
				}
				for r := 0; r < x.Rows; r++ {
					requireRowsEqual(t, "Linear.InferBatch", 0, r, l.Forward(x.Row(r)), y.Row(r))
				}
			}
		}
	})
}

func TestLSTMInferBatchMatchesForward(t *testing.T) {
	onBothKernelPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(12))
		l := NewLSTM(rng, "t", 16, 8)
		for _, lens := range batchLenMixes {
			x, starts, seqs := packSeqs(rng, lens, 16)
			var a Arena
			got := l.InferBatch(x, starts, lens, &a)
			for s, seq := range seqs {
				want, _ := l.Forward(seq)
				for tt := range want {
					requireRowsEqual(t, "LSTM.InferBatch", s, tt, want[tt], got.Row(starts[s]+tt))
				}
			}
		}
	})
}

func TestBiLSTMInferBatchMatchesForward(t *testing.T) {
	onBothKernelPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(13))
		b := NewBiLSTM(rng, "t", 16, 8)
		for _, lens := range batchLenMixes {
			x, starts, seqs := packSeqs(rng, lens, 16)
			var a Arena
			got := b.InferBatch(x, starts, lens, &a)
			for s, seq := range seqs {
				want, _ := b.Forward(seq)
				for tt := range want {
					requireRowsEqual(t, "BiLSTM.InferBatch", s, tt, want[tt], got.Row(starts[s]+tt))
				}
			}
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
