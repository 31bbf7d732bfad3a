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
func refQuantAttention(m *MultiHeadAttention, xs *mat.Mat32, a *nn.Arena) *mat.Mat32 {
	q := m.Wq.InferQuantBatch(xs, a)
	k := m.Wk.InferQuantBatch(xs, a)
	v := m.Wv.InferQuantBatch(xs, a)
	scale := float32(1 / math.Sqrt(float64(m.HeadDim)))
	n := xs.Rows
	headOut := mat.NewMat32(n, m.Dim)
	sc := make([]float32, n)
	for h := 0; h < m.Heads; h++ {
		lo, hi := h*m.HeadDim, (h+1)*m.HeadDim
		for i := 0; i < n; i++ {
			qi := q.Row(i)[lo:hi]
			max := float32(math.Inf(-1))
			for j := 0; j < n; j++ {
				var dot float32
				for d, qv := range qi {
					dot += qv * k.Row(j)[lo+d]
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
			out := headOut.Row(i)[lo:hi]
			for j, e := range sc {
				aj := e * inv
				for d := range out {
					out[d] += aj * v.Row(j)[lo+d]
				}
			}
		}
	}
	return m.Wo.InferQuantBatch(headOut, a)
}

// TestQuantAttentionMatchesReference: stacked Q/K/V over one quantization of
// the input, packed heads, transposed scores and the column softmax change
// where operands live, not one float32 operation or its order — so sequences
// of every shape (empty, one token, below, at and above the 16-column vector
// floor, past a 32-column tile) must match the reference exactly.
func TestQuantAttentionMatchesReference(t *testing.T) {
	onBothKernelPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(51))
		m := NewMultiHeadAttention(rng, "t", 32, 4)
		for _, l := range []*nn.Linear{m.Wq, m.Wk, m.Wv, m.Wo} {
			for i := range l.Bias.W.Data {
				l.Bias.W.Data[i] = rng.NormFloat64() * 0.1
			}
		}
		for _, n := range []int{0, 1, 7, 16, 19, 33} {
			xs := mat.NewMat32(n, m.Dim)
			for i := range xs.Data {
				xs.Data[i] = float32(rng.NormFloat64())
			}
			var a nn.Arena
			want := refQuantAttention(m, xs, &a)
			got := m.InferQuantBatch(xs, &a)
			for i, w := range want.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(w) {
					t.Fatalf("n=%d: element %d = %v, reference %v (bit-exact)", n, i, got.Data[i], w)
				}
			}
		}
	})
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
	before := append([]float32(nil), m.InferQuantBatch(xs, &a).Data...)
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
	after := m.InferQuantBatch(xs, &a).Data
	same := true
	for i := range after {
		same = same && after[i] == before[i]
	}
	if same {
		t.Fatal("output did not follow the mutated weight")
	}
}

// TestQuantEncoderTracksFloat64: through the whole reduced-precision encoder
// a sequence's hidden states stay within quantization noise of the float64
// forward's, truncation at MaxLen included.
func TestQuantEncoderTracksFloat64(t *testing.T) {
	v := tinyVocab()
	m := New(rand.New(rand.NewSource(53)), Config{Layers: 2, Heads: 4, Dim: 32, FFDim: 48, MaxLen: 20}, v)
	long := make([]string, 26)
	for i := range long {
		long[i] = []string{"the", "food", "is", "delicious", "staff", "zzz"}[i%6]
	}
	var maxErr, maxAbs float64
	for s, seq := range [][]string{{"the", "food", "is", "delicious"}, {}, long, {"staff"}} {
		var a nn.Arena
		h, want := m.InferQuantTokensArena(seq, &a), m.InferTokensArena(seq, &a)
		if h.Rows != want.Rows || h.Rows != min(len(seq), m.Cfg.MaxLen) {
			t.Fatalf("seq %d: %d quantized rows, %d float64 rows, %d tokens", s, h.Rows, want.Rows, len(seq))
		}
		for i, w := range want.Data {
			maxAbs = math.Max(maxAbs, math.Abs(w))
			maxErr = math.Max(maxErr, math.Abs(float64(h.Data[i])-w))
		}
	}
	if maxErr > 0.05*maxAbs {
		t.Fatalf("quantized hidden states off by %v against a float64 scale of %v", maxErr, maxAbs)
	}
}

// TestAddNormRows32MatchesPerRow pins the residual layer norm of the mixed
// decode, whose output pass runs on mat.NormRow32, to the per-element
// sequence it replaced, bit for bit, on both kernel paths.
func TestAddNormRows32MatchesPerRow(t *testing.T) {
	onBothKernelPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(44))
		for _, d := range []int{24, 64} {
			ln := NewLayerNorm("ln", d)
			for i := range ln.Gain.W.Data {
				ln.Gain.W.Data[i] = 1 + 0.3*rng.NormFloat64()
				ln.Bias.W.Data[i] = 0.2 * rng.NormFloat64()
			}
			for rows := 0; rows <= 9; rows++ {
				x, r := mat.NewMat32(rows, d), mat.NewMat32(rows, d)
				for i := range x.Data {
					x.Data[i] = float32(rng.NormFloat64() * 2)
					r.Data[i] = float32(rng.NormFloat64())
				}
				want := mat.NewMat32(rows, d)
				for i := 0; i < rows; i++ {
					row := want.Row(i)
					var sum float64
					for j := range row {
						row[j] = x.Row(i)[j] + r.Row(i)[j]
						sum += float64(row[j])
					}
					mean := sum / float64(d)
					var varSum float64
					for _, v := range row {
						dv := float64(v) - mean
						varSum += dv * dv
					}
					std := math.Sqrt(varSum/float64(d) + ln.Eps)
					for j, v := range row {
						row[j] = float32((float64(v)-mean)/std*ln.Gain.W.Data[j] + ln.Bias.W.Data[j])
					}
				}
				got := mat.NewMat32(rows, d)
				ln.addNormRows32(got, x, r)
				for i, w := range want.Data {
					if math.Float32bits(got.Data[i]) != math.Float32bits(w) {
						t.Fatalf("d=%d rows=%d: [%d] = %v, per-row reference %v", d, rows, i, got.Data[i], w)
					}
				}
			}
		}
	})
}
