package tagger

import (
	"slices"
	"testing"

	"saccs/internal/mat"
	"saccs/internal/nn"
	"saccs/internal/tokenize"
)

// hashEnc is an Encoder with nothing but the float64 inference forward: each
// token's embedding is a pure function of its bytes, written into a row of
// the caller's arena.
type hashEnc struct{ dim int }

func (e hashEnc) EmbeddingDim() int { return e.dim }

func (e hashEnc) InferTokensArena(tokens []string, a *nn.Arena) *mat.Mat {
	out := a.MatRaw(len(tokens), e.dim)
	for i, t := range tokens {
		h := uint64(14695981039346656037)
		for j := 0; j < len(t); j++ {
			h = (h ^ uint64(t[j])) * 1099511628211
		}
		row := out.Row(i)
		for j := range row {
			h = (h ^ uint64(j+1)) * 1099511628211
			row[j] = float64(int64(h%2001)-1000) / 1000
		}
	}
	return out
}

// shortEnc drops the last rows of the encoder it wraps, as an encoder with
// a window shorter than the sentence does.
type shortEnc struct {
	hashEnc
	keep int
}

func (e shortEnc) InferTokensArena(tokens []string, a *nn.Arena) *mat.Mat {
	return e.hashEnc.InferTokensArena(tokens[:min(len(tokens), e.keep)], a)
}

// TestPlainEncoderIsCopiedIntoRows covers an encoder with neither a
// reduced-precision nor a trainable forward, whose rows are written straight
// into the decode's arena: the one decode body serves it too — labels are
// the training pipeline's at either precision (there is no reduced-precision
// forward to dispatch to), PathScore confirms the decode maximizes the CRF
// score, and an encoder that returns fewer rows than tokens leaves the rest
// O. OpineDB shares the step.
func TestPlainEncoderIsCopiedIntoRows(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hidden = 6
	seqs := [][]string{
		{"the", "food", "is", "delicious"}, {}, {"staff"},
		{"friendly", "staff", "but", "slow", "service", "and", "cold", "pizza"},
	}
	for _, enc := range []Encoder{hashEnc{dim: 12}, shortEnc{hashEnc{dim: 12}, 3}} {
		m := New(enc, cfg)
		o := NewOpineDB(enc, cfg)
		for s, seq := range seqs {
			var a nn.Arena
			embeds := enc.InferTokensArena(seq, &a)
			want := make([]tokenize.Label, len(seq))
			for i, l := range m.crf.Decode(trainingEmissions(m, seq), &a) {
				want[i] = tokenize.Label(l)
			}
			for _, p := range []nn.Precision{nn.Float64, nn.Mixed} {
				if got := m.PredictAt(seq, p); !slices.Equal(got, want) {
					t.Fatalf("%T %v seq %d: %v, training forward %v", enc, p, s, got, want)
				}
			}
			allO := make([]tokenize.Label, len(seq))
			if best, alt := m.PathScore(seq, want), m.PathScore(seq, allO); best < alt {
				t.Fatalf("%T seq %d: decoded path scores %v, all-O scores %v", enc, s, best, alt)
			}
			wantO := make([]tokenize.Label, len(seq))
			for i := 0; i < embeds.Rows; i++ {
				wantO[i] = tokenize.Label(o.proj.Forward(embeds.Row(i)).MaxIdx())
			}
			if got := o.Predict(seq); !slices.Equal(got, wantO) {
				t.Fatalf("%T OpineDB seq %d: %v, want %v", enc, s, got, wantO)
			}
		}
	}
}
