package tagger

import (
	"slices"
	"testing"

	"saccs/internal/mat"
	"saccs/internal/nn"
	"saccs/internal/tokenize"
)

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

// shortEnc drops the last vectors of the encoder it wraps, as an encoder with
// a window shorter than the sentence does.
type shortEnc struct {
	hashEnc
	keep int
}

func (e shortEnc) EncodeTokens(tokens []string) []mat.Vec {
	return e.hashEnc.EncodeTokens(tokens[:min(len(tokens), e.keep)])
}

// TestPlainEncoderIsCopiedIntoRows covers the encoder step's other arm: an
// encoder without an inference forward of its own has its vectors copied into
// the same rows, so the one decode body serves it too — labels are the
// training pipeline's at either precision (there is no reduced-precision
// forward to dispatch to), PathScore confirms the decode maximizes the CRF
// score, and an encoder that returns fewer vectors than tokens leaves the
// rest O. OpineDB shares the step.
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
			embeds := enc.EncodeTokens(seq)
			want := make([]tokenize.Label, len(seq))
			for i, l := range m.crf.Decode(trainingEmissions(m, seq)) {
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
			for i, e := range embeds {
				wantO[i] = tokenize.Label(o.proj.Forward(e).MaxIdx())
			}
			if got := o.Predict(seq); !slices.Equal(got, wantO) {
				t.Fatalf("%T OpineDB seq %d: %v, want %v", enc, s, got, wantO)
			}
		}
	}
}
