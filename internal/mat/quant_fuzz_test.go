package mat

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzQuantRoundTrip feeds arbitrary bit patterns through the weight
// quantizer as one float64 row and checks the stability invariants that the
// quantize-at-load path depends on:
//
//  1. Fixed point: quantize→dequantize→requantize reproduces the codes and
//     the scale bit-exactly. Dequantization computes code·float64(scale) —
//     at most a 7-bit × 24-bit product — exactly in float64, so the max-abs
//     element and every rounding decision recur identically.
//  2. Codes stay in [-127, 127] (never -128) and Corr is 128·Σcodes.
//  3. When the scale guard did not fire, the max-abs element maps to ±127.
//
// The committed seed corpus (testdata/fuzz/FuzzQuantRoundTrip) covers the
// scale edge cases: all-zero rows, denormals that underflow the float32
// scale, ±MaxFloat64 that overflow it, NaN and ±Inf entries.
func FuzzQuantRoundTrip(f *testing.F) {
	le := binary.LittleEndian
	seed := func(vals ...float64) {
		b := make([]byte, 8*len(vals))
		for i, v := range vals {
			le.PutUint64(b[i*8:], math.Float64bits(v))
		}
		f.Add(b)
	}
	seed(0, 0, 0)
	seed(5e-324, -5e-324, 0) // denormals: float32 scale underflows to 0
	seed(math.MaxFloat64, -math.MaxFloat64, 1)
	seed(math.NaN(), 2, -2)
	seed(math.Inf(1), math.Inf(-1), 3)
	seed(1, -2, 3, -4, 5, -6, 7, -8)
	seed(1e-30, 2e-30, -3e-30)

	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 8
		if n == 0 {
			return
		}
		if n > 256 {
			n = 256
		}
		row := make([]float64, n)
		for i := range row {
			row[i] = math.Float64frombits(le.Uint64(data[i*8:]))
		}
		w := &Mat{Rows: 1, Cols: n, Data: row}
		q1 := QuantizeRows(w)

		var sum int32
		maxCode := int8(0)
		for _, c := range q1.Data {
			if c == -128 {
				t.Fatalf("code -128 escaped the clamp (row %v)", row)
			}
			sum += int32(c)
			if c < 0 {
				c = -c
			}
			if c > maxCode {
				maxCode = c
			}
		}
		if q1.Corr[0] != 128*sum {
			t.Fatalf("Corr = %d, want 128*Σcodes = %d", q1.Corr[0], 128*sum)
		}

		maxAbs := 0.0
		for _, v := range row {
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a
			}
		}
		rawScale := float32(maxAbs / 127)
		guarded := rawScale < 0x1p-126 || math.IsInf(float64(rawScale), 0)
		if guarded {
			if q1.Scales[0] != 1 {
				t.Fatalf("guard case scale = %v, want 1", q1.Scales[0])
			}
		} else if maxCode != 127 {
			t.Fatalf("non-degenerate row: max |code| = %d, want 127 (maxAbs %v, scale %v)",
				maxCode, maxAbs, q1.Scales[0])
		}

		q2 := QuantizeRows(dequantize(q1))
		if q1.Scales[0] != q2.Scales[0] {
			t.Fatalf("requantized scale %v != %v", q2.Scales[0], q1.Scales[0])
		}
		for i := range q1.Data {
			if q1.Data[i] != q2.Data[i] {
				t.Fatalf("requantized code[%d] = %d != %d (row %v)", i, q2.Data[i], q1.Data[i], row)
			}
		}
	})
}
