package bert

import (
	"math/rand"
	"testing"

	"saccs/internal/mat"
	"saccs/internal/nn"
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
	out := make([]mat.Vec, m.Rows)
	for i := range out {
		out[i] = m.Row(i)
	}
	return out
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

// The float64 GEMM forward promises bit-identical hidden states to the
// training forward, layer by layer: the golden snapshots, the index bytes and
// the extraction cache's determinism contract all rest on inference executing
// Encode's float operations in Encode's order. Lengths cover empty, one
// token, a ragged middle, a full MaxLen window and beyond it.

func TestAttentionInferBatchMatchesForwardSeq(t *testing.T) {
	onBothKernelPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(26))
		m := NewMultiHeadAttention(rng, "t", 16, 4)
		for _, n := range []int{0, 1, 7, 16, 28} {
			xs := randVecs(rng, n, m.Dim)
			want := m.ForwardSeq(xs)
			var a nn.Arena
			got := m.InferBatch(packVecs(xs, m.Dim), &a)
			requireSameVecs(t, "attention", want, matRows(got))
		}
	})
}

func TestBlockInferBatchMatchesForwardSeq(t *testing.T) {
	onBothKernelPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(27))
		b := NewBlock(rng, "t", 16, 4, 24)
		for _, n := range []int{0, 1, 7, 16, 28} {
			xs := randVecs(rng, n, 16)
			want := b.ForwardSeq(xs)
			var a nn.Arena
			got := b.InferBatch(packVecs(xs, 16), &a)
			requireSameVecs(t, "block", want, matRows(got))
		}
	})
}

func TestInferMatchesEncode(t *testing.T) {
	onBothKernelPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(21))
		v := tinyVocab()
		m := New(rng, Config{Layers: 2, Heads: 2, Dim: 8, FFDim: 12, MaxLen: 16}, v)
		for _, n := range []int{0, 1, 7, m.Cfg.MaxLen, m.Cfg.MaxLen + 12} {
			ids := v.Encode(cycleTokens(n))
			want := m.Encode(ids)
			if len(want) != min(n, m.Cfg.MaxLen) {
				t.Fatalf("Encode kept %d of %d tokens", len(want), n)
			}
			requireSameVecs(t, "Infer", want, m.Infer(ids))
			var a nn.Arena
			requireSameVecs(t, "InferTokensArena", want, matRows(m.InferTokensArena(cycleTokens(n), &a)))
		}
	})
}

func TestInferEmptySequence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m := New(rng, tinyConfig(), tinyVocab())
	if got := m.Infer(nil); len(got) != 0 {
		t.Fatalf("Infer(nil) returned %d vectors", len(got))
	}
}

// TestInferAllocsRegression pins the per-call allocation count of the
// pooled-arena Infer path: the copy-out (one header slice + one flat
// backing array) plus pool bookkeeping. The pre-arena implementation paid
// hundreds of allocations per call in fresh intermediate vectors.
func TestInferAllocsRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	v := tinyVocab()
	m := New(rng, Config{Layers: 2, Heads: 2, Dim: 16, FFDim: 24, MaxLen: 32}, v)
	ids := v.Encode([]string{"the", "staff", "is", "friendly", "and", "the", "food", "is", "delicious", "."})
	for i := 0; i < 3; i++ {
		m.Infer(ids) // warm the pooled arenas
	}
	allocs := testing.AllocsPerRun(100, func() { m.Infer(ids) })
	if allocs > 8 {
		t.Fatalf("warm Infer allocates %v times per call, want <= 8", allocs)
	}
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
