package tagger

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"saccs/internal/mat"
	"saccs/internal/nn"
	"saccs/internal/race"
	"saccs/internal/tokenize"
)

// TestPredictBatchMatchesPredict pins a packed decode against solo decodes
// label-for-label across adversarial batch shapes, in both arithmetics.
// Because every kernel is sequence-local (internal/nn and internal/bert
// differential tests), a sequence must decode to the same labels whatever
// shares its batch — the identity that lets solo be a batch of one.
func TestPredictBatchMatchesPredict(t *testing.T) {
	m, _ := benchModel()
	words := []string{"i", "want", "an", "italian", "restaurant", "in", "montreal",
		"with", "delicious", "food", "and", "nice", "staff", "the", "is", "friendly"}
	rng := rand.New(rand.NewSource(9))
	mkSeq := func(n int) []string {
		s := make([]string, n)
		for i := range s {
			s[i] = words[rng.Intn(len(words))]
		}
		return s
	}
	batches := [][][]string{
		{},
		{mkSeq(5)},
		{mkSeq(3), mkSeq(7)},
		{mkSeq(0), mkSeq(4), mkSeq(1)},
		{mkSeq(13), mkSeq(2), mkSeq(60), mkSeq(8)}, // one beyond MaxLen=48
		{mkSeq(6), mkSeq(6), mkSeq(6), mkSeq(6), mkSeq(6), mkSeq(6), mkSeq(6), mkSeq(6)},
	}
	for _, p := range []nn.Precision{nn.Float64, nn.Mixed} {
		for bi, seqs := range batches {
			got := m.PredictBatchAt(seqs, p)
			if len(got) != len(seqs) {
				t.Fatalf("%v batch %d: %d results for %d sequences", p, bi, len(got), len(seqs))
			}
			for s, seq := range seqs {
				want := m.PredictAt(seq, p)
				if fmt.Sprint(want) != fmt.Sprint(got[s]) {
					t.Fatalf("%v batch %d seq %d:\n got %v\nwant %v", p, bi, s, got[s], want)
				}
			}
		}
	}
}

// TestPredictBatchAllocs pins the allocation budget of a warm decode in both
// arithmetics: the outs slice plus one label slice per sequence, and for the
// solo entry the one-sequence batch it wraps its tokens in. Everything else
// — packed activations, GEMM scratch, packed and frozen weights, Viterbi
// state — must come from the pooled arena.
func TestPredictBatchAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are inflated by the race detector's own bookkeeping")
	}
	m, tokens := benchModel()
	seqs := [][]string{tokens, tokens[:7], tokens[2:11], tokens[1:6]}
	for _, p := range []nn.Precision{nn.Float64, nn.Mixed} {
		for i := 0; i < 3; i++ {
			m.PredictBatchAt(seqs, p) // warm the pooled arena
		}
		// 1 outs slice + 4 label slices, plus a little slack for the runtime.
		if avg := testing.AllocsPerRun(20, func() { m.PredictBatchAt(seqs, p) }); avg > 8 {
			t.Fatalf("warm PredictBatchAt(%v) allocates %.1f times per call, want <= 8", p, avg)
		}
		if avg := testing.AllocsPerRun(100, func() { m.PredictAt(tokens, p) }); avg > 4 {
			t.Fatalf("warm PredictAt(%v) allocates %.1f times per call, want <= 4", p, avg)
		}
	}
}

// BenchmarkPredictBatch4 measures a batch-of-4 decode at production
// dimensions in both arithmetics; a quarter of its ns/op against
// BenchmarkPredict / BenchmarkPredictMixed is the per-sequence cost of
// sharing a forward (flat: DESIGN.md §9).
func BenchmarkPredictBatch4(b *testing.B) {
	m, tokens := benchModel()
	seqs := [][]string{tokens, tokens, tokens, tokens}
	for _, p := range []nn.Precision{nn.Float64, nn.Mixed} {
		b.Run(p.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.PredictBatchAt(seqs, p)
			}
		})
	}
}

// hashEnc is an Encoder with nothing but EncodeTokens: each token's embedding
// is a pure function of its bytes.
type hashEnc struct{ dim int }

func (e hashEnc) EmbeddingDim() int { return e.dim }

func (e hashEnc) EncodeTokens(tokens []string) []mat.Vec {
	out := make([]mat.Vec, len(tokens))
	for i, t := range tokens {
		h := uint64(14695981039346656037)
		for j := 0; j < len(t); j++ {
			h = (h ^ uint64(t[j])) * 1099511628211
		}
		out[i] = mat.NewVec(e.dim)
		for j := range out[i] {
			h = (h ^ uint64(j+1)) * 1099511628211
			out[i][j] = float64(int64(h%2001)-1000) / 1000
		}
	}
	return out
}

// TestPlainEncoderIsPackedIntoRows covers the encoder step's other arm: an
// encoder without an inference forward of its own is packed into the same
// rows, so the one decode body serves it too — labels are the training
// pipeline's at either precision (there is no reduced-precision forward to
// dispatch to), alone or inside a ragged batch, and PathScore confirms the
// decode maximizes the CRF score. OpineDB shares the step.
func TestPlainEncoderIsPackedIntoRows(t *testing.T) {
	enc := hashEnc{dim: 12}
	cfg := DefaultConfig()
	cfg.Hidden = 6
	m := New(enc, cfg)
	o := NewOpineDB(enc, cfg)
	seqs := [][]string{
		{"the", "food", "is", "delicious"}, {}, {"staff"},
		{"friendly", "staff", "but", "slow", "service", "and", "cold", "pizza"},
	}
	for _, p := range []nn.Precision{nn.Float64, nn.Mixed} {
		batched := m.PredictBatchAt(seqs, p)
		for s, seq := range seqs {
			hs, _ := m.bilstm.Forward(enc.EncodeTokens(seq))
			want := make([]tokenize.Label, len(seq))
			for i, l := range m.crf.Decode(m.proj.ForwardSeq(hs)) {
				want[i] = tokenize.Label(l)
			}
			if got := m.PredictAt(seq, p); !slices.Equal(got, want) {
				t.Fatalf("%v seq %d: solo %v, training forward %v", p, s, got, want)
			}
			if !slices.Equal(batched[s], want) {
				t.Fatalf("%v seq %d: batched %v, training forward %v", p, s, batched[s], want)
			}
			allO := make([]tokenize.Label, len(seq))
			if best, alt := m.PathScore(seq, want), m.PathScore(seq, allO); best < alt {
				t.Fatalf("seq %d: decoded path scores %v, all-O scores %v", s, best, alt)
			}
		}
	}
	for s, seq := range seqs {
		want := make([]tokenize.Label, len(seq))
		for i, e := range enc.EncodeTokens(seq) {
			want[i] = tokenize.Label(o.proj.Forward(e).MaxIdx())
		}
		if got := o.Predict(seq); !slices.Equal(got, want) {
			t.Fatalf("OpineDB seq %d: %v, want %v", s, got, want)
		}
	}
}
