package bert

import (
	"math/rand"
	"testing"

	"saccs/internal/mat"
	"saccs/internal/nn"
	"saccs/internal/tokenize"
)

// onBothKernelPaths runs f on mat's vector kernels (where the CPU has them)
// and again on the pure-Go ones.
func onBothKernelPaths(t *testing.T, f func(t *testing.T)) {
	t.Run("vector", f)
	t.Run("scalar", func(t *testing.T) {
		defer mat.ForceScalar()()
		f(t)
	})
}

// cycleTokens returns n in-vocabulary tokens.
func cycleTokens(n int) []string {
	words := []string{"the", "food", "is", "delicious", "staff", "friendly", "and", "."}
	out := make([]string, n)
	for i := range out {
		out[i] = words[(i*5+i/3)%len(words)]
	}
	return out
}

func requireSameVecs(t *testing.T, what string, want, got []mat.Vec) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d vectors, want %d", what, len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("%s: h[%d][%d] = %v, want %v (bit-exact)", what, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// matRows views the rows of m as vectors.
func matRows(m *mat.Mat) []mat.Vec {
	rows := make([]mat.Vec, m.Rows)
	for i := range rows {
		rows[i] = m.Row(i)
	}
	return rows
}

// packVecs copies a sequence of vectors into the rows of one matrix.
func packVecs(xs []mat.Vec, dim int) *mat.Mat {
	m := mat.NewMat(len(xs), dim)
	for i, x := range xs {
		copy(m.Row(i), x)
	}
	return m
}

func randVecs(rng *rand.Rand, n, dim int) []mat.Vec {
	xs := make([]mat.Vec, n)
	for i := range xs {
		xs[i] = mat.NewVec(dim)
		for j := range xs[i] {
			xs[i][j] = rng.NormFloat64()
		}
	}
	return xs
}

// requireSameAttention compares one layer's attention rows, as the taped
// forward records them (head h, token i at row h·n+i), with the reference's.
func requireSameAttention(t *testing.T, what string, want [][]mat.Vec, got *mat.Mat) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: no attention rows recorded", what)
	}
	var flat []mat.Vec
	for _, head := range want {
		flat = append(flat, head...)
	}
	requireSameVecs(t, what, flat, matRows(got))
}

// The float64 forward promises hidden states bit-identical to the per-token
// reference of reference_test.go, layer by layer, with and without a tape:
// the golden snapshots, the index bytes and the extraction cache's
// determinism contract all rest on inference executing the reference's
// float operations in its order, and training runs the same forward on a
// tape. Lengths cover empty, one token, a ragged middle, a full MaxLen
// window and beyond it.

func TestAttentionForwardMatchesReference(t *testing.T) {
	onBothKernelPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(26))
		m := NewMultiHeadAttention(rng, "t", 16, 4)
		for _, n := range []int{0, 1, 7, 16, 28} {
			xs := randVecs(rng, n, m.Dim)
			want, wantAttn := refAttention(m, xs)
			var a nn.Arena
			requireSameVecs(t, "attention", want, matRows(m.Forward(packVecs(xs, m.Dim), &a, nil)))
			var tape nn.Tape
			got := m.Forward(packVecs(xs, m.Dim), &tape.Arena, &tape)
			requireSameVecs(t, "taped attention", want, matRows(got))
			requireSameAttention(t, "taped attention rows", wantAttn, tape.Kept(0))
		}
	})
}

func TestBlockForwardMatchesReference(t *testing.T) {
	onBothKernelPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(27))
		b := NewBlock(rng, "t", 16, 4, 24)
		for _, n := range []int{0, 1, 7, 16, 28} {
			xs := randVecs(rng, n, 16)
			want, _ := refBlock(b, xs)
			var a nn.Arena
			requireSameVecs(t, "block", want, matRows(b.Forward(packVecs(xs, 16), &a, nil)))
			var tape nn.Tape
			requireSameVecs(t, "taped block", want, matRows(b.Forward(packVecs(xs, 16), &tape.Arena, &tape)))
		}
	})
}

// referenceModel is the two-layer model the whole-encoder identities run on.
func referenceModel() (*Model, *tokenize.Vocab) {
	v := tinyVocab()
	return New(rand.New(rand.NewSource(21)), Config{Layers: 2, Heads: 2, Dim: 8, FFDim: 12, MaxLen: 16}, v), v
}

func TestEncodeAndInferMatchReference(t *testing.T) {
	onBothKernelPaths(t, func(t *testing.T) {
		m, v := referenceModel()
		for _, n := range []int{0, 1, 7, m.Cfg.MaxLen, m.Cfg.MaxLen + 12} {
			ids := v.Encode(cycleTokens(n))
			want, _ := refEncode(m, ids)
			if len(want) != min(n, m.Cfg.MaxLen) {
				t.Fatalf("reference kept %d of %d tokens", len(want), n)
			}
			requireSameVecs(t, "Encode", want, matRows(m.Encode(ids)))
			var a nn.Arena
			requireSameVecs(t, "InferTokensArena", want, matRows(m.InferTokensArena(cycleTokens(n), &a)))
		}
	})
}

// TestAttentionReadbackMatchesReference pins the Fig. 5 readback: after
// EncodeTokens, Model.Attention(layer, head) is the reference forward's
// attention rows for that layer and head, bit for bit.
func TestAttentionReadbackMatchesReference(t *testing.T) {
	onBothKernelPaths(t, func(t *testing.T) {
		m, v := referenceModel()
		for _, n := range []int{0, 1, 7, m.Cfg.MaxLen, m.Cfg.MaxLen + 12} {
			tokens := cycleTokens(n)
			_, wantAttn := refEncode(m, v.Encode(tokens))
			m.EncodeTokens(tokens)
			for layer := range m.Blocks {
				for head := 0; head < m.Cfg.Heads; head++ {
					requireSameVecs(t, "Attention", wantAttn[layer][head], matRows(m.Attention(layer, head)))
				}
			}
		}
	})
}

// TestInferBatchZeroAllocsWhenWarm pins the fully arena-backed forward at
// zero: packed weights are cached on the layers and every activation comes
// from the caller's arena.
func TestInferBatchZeroAllocsWhenWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	m := New(rng, tinyConfig(), tinyVocab())
	tokens := []string{"the", "food", "is", "delicious"}
	var a nn.Arena
	m.InferTokensArena(tokens, &a) // warm
	allocs := testing.AllocsPerRun(100, func() {
		a.Reset()
		m.InferTokensArena(tokens, &a)
	})
	if allocs != 0 {
		t.Fatalf("warm InferTokensArena allocates %v times per call, want 0", allocs)
	}
}
