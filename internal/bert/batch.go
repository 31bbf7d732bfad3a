package bert

import (
	"time"

	"saccs/internal/mat"
	"saccs/internal/nn"
)

// The float64 forward: one token sequence is one matrix, a row per token.
// The linear projections of all rows run as single GEMMs on
// mat.MatMulInto's fast path; attention, layer norm, GELU, and residuals are
// per-row or per-sequence. Inference runs it with no tape and writes no
// receiver state, so any number of goroutines may infer concurrently, each
// with its own arena; Encode runs the same forward on the model's tape,
// which Backward and Attention then read.

// InferTokensArena tokenizes and encodes one sequence in an arena-backed
// forward pass and returns its hidden states, one row per token; a sequence
// longer than MaxLen is truncated, exactly as in Encode. Everything —
// including the returned matrix — is carved from the caller's arena and
// valid only until its next Reset.
func (m *Model) InferTokensArena(tokens []string, a *nn.Arena) *mat.Mat {
	n := min(len(tokens), m.Cfg.MaxLen)
	if m.o != nil {
		defer m.encHist.ObserveSince(time.Now())
		m.encTokens.Add(int64(n))
	}
	x := a.MatRaw(n, m.Cfg.Dim)
	for i := 0; i < n; i++ {
		m.embedInto(x.Row(i), m.Vocab.ID(tokens[i]), i)
	}
	return m.blocks(x, a, nil)
}

// embedInto writes the summed token and position embedding into row.
func (m *Model) embedInto(row mat.Vec, id, pos int) {
	m.TokEmb.LookupInto(row, id)
	row.Add(m.PosEmb.Table.W.Row(pos))
}

// blocks runs the transformer stack over one sequence's embedded rows.
func (m *Model) blocks(x *mat.Mat, a *nn.Arena, t *nn.Tape) *mat.Mat {
	for _, b := range m.Blocks {
		x = b.Forward(x, a, t)
	}
	return x
}
