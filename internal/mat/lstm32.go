package mat

// The float32 LSTM recurrence of the mixed decode. The input projection of
// every token (an int8 GEMM in internal/nn) runs before it; what is left is
// the sequential part, one step per token:
//
//	zh = h·Whᵀ               (accumulators from +0, k ascending)
//	z  = zx + zh
//	i, f, o = σ(z_i), σ(z_f), σ(z_o);  g = tanh(z_g)
//	c  = f·c + i·g
//	h  = tanh(c)·o
//
// lstmRecurGo below is the definition and the path for hosts without
// AVX-512 (and for H > 64); the vector twin (fastmath32_amd64.s) runs a
// whole sequence in one call, two directions interleaved so their
// dependency chains share the ports, and performs the same unfused float32
// operations per lane in the same order, with SigmoidRow32's and
// TanhRow32's macros and constants. TestLSTMRecur32PathsBitIdentical pins
// the two together.

// LSTMDir32 is one direction of an LSTM's recurrence over a sequence of n
// tokens.
type LSTMDir32 struct {
	Z       *Mat32 // n×4H: every token's input projection, bias included, gates (i, f, g, o)
	WhT     *Mat32 // H×4H: the recurrent weight, transposed
	Off     int    // token t's hidden state goes to columns [Off, Off+H) of out's row t
	Reverse bool   // walk the tokens from the last to the first
}

// lstmVecMaxH is the widest hidden state the vector kernel takes: four
// 16-lane blocks, the last one masked.
const lstmVecMaxH = 64

// LSTMRecur32 runs the recurrence of one direction, or of two independent
// ones over the same tokens (a BiLSTM's), from zero hidden and cell states,
// and writes every token's hidden state into out. Every direction must
// share n and H; their column ranges of out must not overlap. The vector
// kernel takes a BiLSTM's two directions at H ≤ 64; a single direction, or
// a wider H, runs on the Go twin.
func LSTMRecur32(out *Mat32, dirs ...LSTMDir32) {
	if len(dirs) == 0 || len(dirs) > 2 {
		panic("mat: LSTMRecur32 takes one or two directions")
	}
	H := dirs[0].WhT.Rows
	for _, d := range dirs {
		checkLen(d.WhT.Rows, H)
		checkLen(d.WhT.Cols, 4*H)
		checkLen(d.Z.Rows, out.Rows)
		checkLen(d.Z.Cols, 4*H)
		if d.Off < 0 || d.Off+H > out.Cols {
			panic("mat: LSTM direction outside out's columns")
		}
	}
	if out.Rows == 0 || H == 0 {
		return
	}
	if H <= lstmVecMaxH && lstmRecurAsm(out, dirs) {
		return
	}
	for _, d := range dirs {
		lstmRecurGo(out, d)
	}
}

// lstmRecurGo runs one direction.
func lstmRecurGo(out *Mat32, d LSTMDir32) {
	n, H := out.Rows, d.WhT.Rows
	var buf [10 * lstmVecMaxH]float32
	work := buf[:]
	if H > lstmVecMaxH {
		work = make([]float32, 10*H)
	}
	zh, g, c := work[:4*H], work[4*H:8*H], work[8*H:9*H]
	ig, fg, gg, og := g[:H], g[H:2*H], g[2*H:3*H], g[3*H:]
	h := work[9*H : 10*H] // h_{-1} = 0
	for t := 0; t < n; t++ {
		row := t
		if d.Reverse {
			row = n - 1 - t
		}
		clear(zh)
		for k, hv := range h {
			for j, w := range d.WhT.Row(k) {
				zh[j] += hv * w
			}
		}
		for j, zx := range d.Z.Row(row) {
			zh[j] = zx + zh[j]
		}
		SigmoidRow32(g[:2*H], zh[:2*H]) // input and forget gates
		TanhRow32(gg, zh[2*H:3*H])
		SigmoidRow32(og, zh[3*H:]) // output gate
		for j := range c {
			c[j] = fg[j]*c[j] + ig[j]*gg[j]
		}
		h = out.Row(row)[d.Off : d.Off+H]
		TanhRow32(h, c)
		for j := range h {
			h[j] *= og[j]
		}
	}
}
