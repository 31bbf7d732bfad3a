package bert

import (
	"math"
	"math/rand"
	"testing"

	"saccs/internal/mat"
	"saccs/internal/nn"
)

// refQuantAttention is reduced-precision self-attention the way the decode
// ran it before the stacked Q/K/V weight and the packed per-head operands:
// three separate int8 projections (each quantizing xs for itself), then per
// head and query a dot product with every key, a row softmax, and a weighted
// sum over the values, re-slicing the projection rows as it goes. It is the
// reference InferQuantBatch must reproduce bit for bit.
func refQuantAttention(m *MultiHeadAttention, xs *mat.Mat32, starts, lens []int, a *nn.Arena) *mat.Mat32 {
	q := m.Wq.InferQuantBatch(xs, a)
	k := m.Wk.InferQuantBatch(xs, a)
	v := m.Wv.InferQuantBatch(xs, a)
	scale := float32(1 / math.Sqrt(float64(m.HeadDim)))
	headOut := mat.NewMat32(xs.Rows, m.Dim)
	for s, n := range lens {
		base := starts[s]
		sc := make([]float32, n)
		for h := 0; h < m.Heads; h++ {
			lo, hi := h*m.HeadDim, (h+1)*m.HeadDim
			for i := 0; i < n; i++ {
				qi := q.Row(base + i)[lo:hi]
				max := float32(math.Inf(-1))
				for j := 0; j < n; j++ {
					var dot float32
					for d, qv := range qi {
						dot += qv * k.Row(base + j)[lo+d]
					}
					sc[j] = dot * scale
					if sc[j] > max {
						max = sc[j]
					}
				}
				for j := range sc {
					sc[j] -= max
				}
				mat.ExpRow32(sc, sc)
				var sum float32
				for _, e := range sc {
					sum += e
				}
				inv := 1 / sum
				out := headOut.Row(base + i)[lo:hi]
				for j, e := range sc {
					aj := e * inv
					for d := range out {
						out[d] += aj * v.Row(base + j)[lo+d]
					}
				}
			}
		}
	}
	return m.Wo.InferQuantBatch(headOut, a)
}

// TestQuantAttentionMatchesReference: stacked Q/K/V over one quantization of
// the input, packed heads, transposed scores and the column softmax change
// where operands live, not one float32 operation or its order — so ragged
// batches (empty, one token, below and above the 16-column vector floor)
// must match the reference exactly.
func TestQuantAttentionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	m := NewMultiHeadAttention(rng, "t", 32, 4)
	for _, l := range []*nn.Linear{m.Wq, m.Wk, m.Wv, m.Wo} {
		for i := range l.Bias.W.Data {
			l.Bias.W.Data[i] = rng.NormFloat64() * 0.1
		}
	}
	for _, lens := range [][]int{{19}, {1}, {3, 0, 17, 1, 33}, {16, 15}} {
		starts, total := make([]int, len(lens)), 0
		for s, n := range lens {
			starts[s], total = total, total+n
		}
		xs := mat.NewMat32(total, m.Dim)
		for i := range xs.Data {
			xs.Data[i] = float32(rng.NormFloat64())
		}
		var a nn.Arena
		a.Reset()
		want := refQuantAttention(m, xs, starts, lens, &a)
		got := m.InferQuantBatch(xs, starts, lens, &a)
		for i, w := range want.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(w) {
				t.Fatalf("lens %v: element %d = %v, reference %v (bit-exact)", lens, i, got.Data[i], w)
			}
		}
	}
}

// TestStackedQKVFollowsRetrain pins the stacked copy's cache protocol: one
// 3·Dim-row weight, reused while the three projections hold still, rebuilt
// (and the output with it) when any of them is mutated.
func TestStackedQKVFollowsRetrain(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	m := NewMultiHeadAttention(rng, "t", 16, 2)
	xs := mat.NewMat32(3, m.Dim)
	for i := range xs.Data {
		xs.Data[i] = float32(rng.NormFloat64())
	}
	var a nn.Arena
	a.Reset()
	before := append([]float32(nil), m.InferQuantBatch(xs, []int{0}, []int{3}, &a).Data...)
	q1 := m.qkv.Quantize(m.Wq, m.Wk, m.Wv)
	if q1.W.Rows != 3*m.Dim || m.qkv.Quantize(m.Wq, m.Wk, m.Wv) != q1 {
		t.Fatalf("stacked weight: %d rows, cached=%v", q1.W.Rows, m.qkv.Quantize(m.Wq, m.Wk, m.Wv) == q1)
	}
	m.Wk.Weight.W.Data[0] += 0.5
	m.Wk.Weight.NoteMutated()
	if m.qkv.Quantize(m.Wq, m.Wk, m.Wv) == q1 {
		t.Fatal("mutating Wk did not invalidate the stacked copy")
	}
	a.Reset()
	after := m.InferQuantBatch(xs, []int{0}, []int{3}, &a).Data
	same := true
	for i := range after {
		same = same && after[i] == before[i]
	}
	if same {
		t.Fatal("output did not follow the mutated weight")
	}
}

// TestQuantEncoderSoloMatchesBatchAndTracksFloat64: through the whole
// reduced-precision encoder, a sequence's hidden states are the same bits
// alone and inside a ragged batch (truncation at MaxLen included), and stay
// within quantization noise of the float64 batch forward.
func TestQuantEncoderSoloMatchesBatchAndTracksFloat64(t *testing.T) {
	v := tinyVocab()
	m := New(rand.New(rand.NewSource(53)), Config{Layers: 2, Heads: 4, Dim: 32, FFDim: 48, MaxLen: 20}, v)
	long := make([]string, 26)
	for i := range long {
		long[i] = []string{"the", "food", "is", "delicious", "staff", "zzz"}[i%6]
	}
	seqs := [][]string{{"the", "food", "is", "delicious"}, {}, long, {"staff"}}
	var a, ref nn.Arena
	a.Reset()
	ref.Reset()
	h, starts, lens := m.InferQuantBatchTokensArena(seqs, &a)
	want, wstarts, wlens := m.InferBatchTokensArena(seqs, &ref)
	var maxErr, maxAbs float64
	for s, seq := range seqs {
		if lens[s] != wlens[s] || lens[s] != min(len(seq), m.Cfg.MaxLen) {
			t.Fatalf("seq %d: %d quantized rows, %d float64 rows, %d tokens", s, lens[s], wlens[s], len(seq))
		}
		var sa nn.Arena
		sa.Reset()
		solo, _, _ := m.InferQuantBatchTokensArena([][]string{seq}, &sa)
		for i := 0; i < lens[s]; i++ {
			row := h.Row(starts[s] + i)
			for j, w := range solo.Row(i) {
				if math.Float32bits(row[j]) != math.Float32bits(w) {
					t.Fatalf("seq %d token %d elem %d: batch %v, solo %v (bit-exact)", s, i, j, row[j], w)
				}
			}
			for j, w := range want.Row(wstarts[s] + i) {
				maxAbs = math.Max(maxAbs, math.Abs(w))
				maxErr = math.Max(maxErr, math.Abs(float64(row[j])-w))
			}
		}
	}
	if maxErr > 0.05*maxAbs {
		t.Fatalf("quantized hidden states off by %v against a float64 scale of %v", maxErr, maxAbs)
	}
}
