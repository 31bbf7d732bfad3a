package bert

import (
	"math"
	"time"

	"saccs/internal/mat"
	"saccs/internal/nn"
)

// The float64 inference forward: one token sequence is one matrix, a row per
// token. The linear projections of all rows run as single GEMMs on
// mat.MatMulInto's fast path; attention, layer norm, GELU, and residuals are
// per-row or per-sequence and execute exactly the training ForwardSeq
// arithmetic, so the hidden states are bit-identical to Encode's. Nothing
// here writes receiver state (no backward caches, no Attention readback), so
// any number of goroutines may infer concurrently, each with its own arena.

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
	return m.inferBlocks(x, a)
}

// embedInto writes the summed token and position embedding into row.
func (m *Model) embedInto(row mat.Vec, id, pos int) {
	m.TokEmb.LookupInto(row, id)
	row.Add(m.PosEmb.Table.W.Row(pos))
}

// inferBlocks runs the transformer stack over one sequence's embedded rows.
func (m *Model) inferBlocks(x *mat.Mat, a *nn.Arena) *mat.Mat {
	for _, b := range m.Blocks {
		x = b.InferBatch(x, a)
	}
	return x
}

// InferBatch runs the encoder layer over one sequence. Per row (token) the
// residual/norm/FFN arithmetic is ForwardSeq's exactly; the four linear
// projections run as GEMMs over all rows.
func (b *Block) InferBatch(xs *mat.Mat, a *nn.Arena) *mat.Mat {
	n := xs.Rows
	attnOut := b.Attn.InferBatch(xs, a)
	res1 := a.MatRaw(n, xs.Cols)
	for i := 0; i < n; i++ {
		v := res1.Row(i)
		copy(v, xs.Row(i))
		v.Add(attnOut.Row(i))
	}
	h1 := a.MatRaw(n, xs.Cols)
	for i := 0; i < n; i++ {
		b.LN1.ApplyInto(h1.Row(i), res1.Row(i))
	}
	ffPre := b.FF1.InferBatch(h1, a)
	ffAct := a.MatRaw(n, ffPre.Cols)
	for i := 0; i < n; i++ {
		nn.GELUInto(ffAct.Row(i), ffPre.Row(i))
	}
	ffnOuts := b.FF2.InferBatch(ffAct, a)
	res2 := a.MatRaw(n, xs.Cols)
	for i := 0; i < n; i++ {
		v := res2.Row(i)
		copy(v, h1.Row(i))
		v.Add(ffnOuts.Row(i))
	}
	out := a.MatRaw(n, xs.Cols)
	for i := 0; i < n; i++ {
		b.LN2.ApplyInto(out.Row(i), res2.Row(i))
	}
	return out
}

// InferBatch runs self-attention over one sequence: the Q/K/V/O projections
// are GEMMs over every token row at once, while the score/softmax/
// weighted-sum loops keep the exact loop structure of ForwardSeq — including
// the softmax-zero skip — so attention output rows are bit-identical to the
// training path's vectors.
func (m *MultiHeadAttention) InferBatch(xs *mat.Mat, a *nn.Arena) *mat.Mat {
	n := xs.Rows
	q := m.Wq.InferBatch(xs, a)
	k := m.Wk.InferBatch(xs, a)
	v := m.Wv.InferBatch(xs, a)
	scale := 1 / math.Sqrt(float64(m.HeadDim))
	headOut := a.Mat(n, m.Dim)
	sc := a.Vec(n)
	at := a.Vec(n)
	for h := 0; h < m.Heads; h++ {
		lo := h * m.HeadDim
		hi := lo + m.HeadDim
		for i := 0; i < n; i++ {
			// The dot and weighted-sum loops below are Vec.Dot and
			// Vec.AddScaled inlined (same per-element order, ascending
			// k/j, zero-weight skip preserved) — the call and slicing
			// overhead of 2·n² tiny vector ops per head dominates at
			// HeadDim 8, so the serial kernels are spelled out here.
			qi := q.Row(i)[lo:hi:hi]
			// Two keys per iteration: each dot keeps Vec.Dot's ascending-d
			// accumulation (bit-identical), but the two independent sum
			// chains overlap in the FP pipeline where a single chain is
			// latency-bound.
			j := 0
			for ; j+1 < n; j += 2 {
				kj0 := k.Row(j)[lo:hi:hi]
				kj1 := k.Row(j + 1)[lo:hi:hi]
				var s0, s1 float64
				for d, qv := range qi {
					s0 += qv * kj0[d]
					s1 += qv * kj1[d]
				}
				sc[j] = s0 * scale
				sc[j+1] = s1 * scale
			}
			for ; j < n; j++ {
				kj := k.Row(j)[lo:hi:hi]
				var s float64
				for d, qv := range qi {
					s += qv * kj[d]
				}
				sc[j] = s * scale
			}
			mat.Softmax(at, sc)
			out := headOut.Row(i)[lo:hi:hi]
			for j := 0; j < n; j++ {
				aj := at[j]
				if aj == 0 {
					continue
				}
				vj := v.Row(j)[lo:hi:hi]
				for d := range out {
					out[d] += aj * vj[d]
				}
			}
		}
	}
	return m.Wo.InferBatch(headOut, a)
}
