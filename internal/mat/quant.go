package mat

import "math"

// Int8 kernel family for the quantized inference path.
//
// Scheme: per-output-channel symmetric weight quantization. Every weight row
// (one output channel of an Out×In layer) gets its own scale s_r =
// maxabs(row)/127 and codes q = clamp(round(w/s_r), ±127); activations are
// quantized dynamically per row (per token) the same way at call time. A dot
// product then dequantizes as float32(Σ q_a·q_w)·s_a·s_r — one int32
// accumulator per output element, scaled once at the end.
//
// Offset-binary trick: activation codes are stored as uint8 with a +128
// offset (q_a + 128) so the AVX-512 VNNI instruction VPDPBUSD — which
// multiplies unsigned bytes by signed bytes — applies directly. Since
// Σ (q_a+128)·q_w = Σ q_a·q_w + 128·Σ q_w, subtracting the precomputed
// per-row correction Corr_r = 128·rowsum(q_w) recovers the signed dot
// exactly. All three kernel paths (pure Go, AVX-512 VNNI, and the
// AVX-512BW VPMADDWD fallback) produce the identical int32 accumulator —
// integer addition is associative, so lane order doesn't matter — and the
// dequantization epilogue rounds the same three float32 operations per
// element in Go and in its vector twin, making quantized results
// bit-identical across machines and dispatch paths.
// TestInt8KernelPathsBitIdentical and FuzzQuantRoundTrip pin this.
//
// The K dimension is padded to a multiple of QuantK: padded weight bytes are
// 0 and padded activation bytes are 128 (code 0 in offset-binary), so the
// padding contributes exactly zero to both the dot and the correction.

// QuantK is the K-padding granularity: one 64-byte zmm of weight codes.
const QuantK = 64

// Int8Weights is the frozen per-output-row symmetric int8 quantization of an
// Out×In float64 weight matrix, produced once at quantize-at-load time
// (nn.Linear.Quantize / nn.LSTM.Quantize) and shared read-only by any number
// of concurrent decodes.
type Int8Weights struct {
	Rows, Cols int // logical Out×In
	KP         int // Cols padded up to a multiple of QuantK

	// Data holds the codes row-major, Rows×KP, padding zero.
	Data []int8
	// Scales holds the per-row dequantization scale s_r.
	Scales []float32
	// Corr holds the per-row offset correction 128·rowsum(Data[r]).
	Corr []int32

	// vnni is the VNNI-interleaved copy of Data: full blocks of 16 output
	// rows × 4 k-bytes per 64-byte group, the layout VPDPBUSD consumes with
	// one broadcast activation dword per group. Built only when the CPU has
	// AVX512-VNNI; nil otherwise. vnniBlocks counts the full 16-row blocks;
	// the Rows%16 tail always runs on the row-major fallbacks.
	vnni       []int8
	vnniBlocks int
}

// padK rounds n up to the next multiple of QuantK.
func padK(n int) int { return (n + QuantK - 1) &^ (QuantK - 1) }

// PadK is padK for callers sizing activation-quantization buffers
// (internal/nn arena carving).
func PadK(n int) int { return padK(n) }

// quantScale turns a row's max-abs into the symmetric scale, guarding the
// degenerate cases so quantize→dequantize→requantize is a fixed point: an
// all-zero (or all-NaN) row, a scale that would underflow below the smallest
// normal float32 (denormal scales lose so much relative precision that the
// max element no longer maps to ±127), and a scale that would overflow to
// +Inf all collapse to scale 1 — their codes are then 0 or ±127 and
// reproduce themselves.
func quantScale(maxAbs float64) float32 {
	s := float32(maxAbs / 127)
	if s < 0x1p-126 || math.IsInf(float64(s), 0) {
		return 1
	}
	return s
}

// quantCode quantizes one value against a scale: round to nearest (ties away
// from zero), clamped to ±127, with NaN mapping to 0. The clamp happens in
// the float domain so ±Inf inputs saturate instead of hitting Go's undefined
// float→int conversion.
func quantCode(v float64, scale float32) int8 {
	q := math.Round(v / float64(scale))
	switch {
	case math.IsNaN(q):
		return 0
	case q > 127:
		return 127
	case q < -127:
		return -127
	}
	return int8(q)
}

// QuantizeRows quantizes an Out×In float64 weight matrix with one symmetric
// scale per output row. The returned Int8Weights is immutable.
func QuantizeRows(w *Mat) *Int8Weights {
	kp := padK(w.Cols)
	q := &Int8Weights{
		Rows:   w.Rows,
		Cols:   w.Cols,
		KP:     kp,
		Data:   make([]int8, w.Rows*kp),
		Scales: make([]float32, w.Rows),
		Corr:   make([]int32, w.Rows),
	}
	for r := 0; r < w.Rows; r++ {
		row := w.Data[r*w.Cols : (r+1)*w.Cols]
		maxAbs := 0.0
		for _, v := range row {
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a // NaN compares false and is skipped
			}
		}
		s := quantScale(maxAbs)
		q.Scales[r] = s
		dst := q.Data[r*kp : (r+1)*kp]
		var sum int32
		for k, v := range row {
			c := quantCode(v, s)
			dst[k] = c
			sum += int32(c)
		}
		q.Corr[r] = 128 * sum
	}
	if useVNNI() {
		q.packVNNI()
	}
	return q
}

// packVNNI builds the interleaved layout the VNNI kernel streams: for each
// full block of 16 output rows, KP/4 groups of 64 bytes, group g holding
// rows r..r+15's k-bytes [4g, 4g+4). Pure data movement — the codes are
// Data's exactly.
func (q *Int8Weights) packVNNI() {
	blocks := q.Rows / 16
	if blocks == 0 {
		return
	}
	groups := q.KP / 4
	packed := make([]int8, blocks*groups*64)
	for b := 0; b < blocks; b++ {
		for g := 0; g < groups; g++ {
			out := packed[(b*groups+g)*64:]
			for lane := 0; lane < 16; lane++ {
				src := q.Data[(b*16+lane)*q.KP+g*4:]
				out[lane*4+0] = src[0]
				out[lane*4+1] = src[1]
				out[lane*4+2] = src[2]
				out[lane*4+3] = src[3]
			}
		}
	}
	q.vnni, q.vnniBlocks = packed, blocks
}

// Dequantize expands the codes back to float64 (code·scale), the reference
// the round-trip fuzz target and drift tests compare against.
func (q *Int8Weights) Dequantize() *Mat {
	m := NewMat(q.Rows, q.Cols)
	for r := 0; r < q.Rows; r++ {
		s := float64(q.Scales[r])
		src := q.Data[r*q.KP:]
		dst := m.Data[r*q.Cols : (r+1)*q.Cols]
		for k := range dst {
			dst[k] = float64(src[k]) * s
		}
	}
	return m
}

// QuantizeRowU8 quantizes one float32 activation row symmetrically to int8
// stored offset-binary (code+128) in dst and returns the scale. dst must be
// a padded row of length padK(len(src)); the padding is written as 128
// (code 0), so kernels can stream whole 64-byte groups unconditionally. It
// runs in front of every int8 GEMM, so both passes — max-abs, then codes —
// are branch-free, with AVX-512 twins that take the whole row (its last
// block under a k-mask).
func QuantizeRowU8(dst []uint8, src []float32) float32 {
	checkLen(len(dst), padK(len(src)))
	s := quantScale(float64(math.Float32frombits(maxAbsBits(src))))
	quantCodes(dst[:len(src)], src, 1/s)
	for k := len(src); k < len(dst); k++ {
		dst[k] = 128
	}
	return s
}

// maxAbsBitsGo returns the bit pattern of the largest |v| in src, 0 for an
// empty row. Non-negative floats order like their bit patterns, so the scan
// is an integer max over sign-cleared bits; NaN patterns (above +Inf's) are
// skipped, as an ordered float compare would skip them.
func maxAbsBitsGo(src []float32) uint32 {
	var m uint32
	for _, v := range src {
		a := math.Float32bits(v) &^ (1 << 31)
		if a > 0x7f800000 {
			a = 0
		}
		m = max(m, a)
	}
	return m
}

// quantCodesGo writes the offset-binary code of every v·inv: round to
// nearest even, clamp to ±127, NaN to code 0 (the weight-side quantCode
// rounds ties away from zero; the two may disagree by one code on half-ulp
// knife edges, inside the quantization noise the drift oracle budgets).
// Adding 1.5·2²³ leaves the rounded integer in the low mantissa bits of the
// sum for any |x| ≤ 2²², so the code is read straight out of the bit pattern;
// sums outside that window land monotonically above or below it (negative
// sums have the sign bit set, hence the widening before the subtraction),
// which the integer clamp absorbs.
func quantCodesGo(dst []uint8, src []float32, inv float32) {
	const magic = float32(3 << 22) // 1.5·2²³ = 0x4B400000
	dst = dst[:len(src)]
	for k, v := range src {
		b := math.Float32bits(v*inv + magic)
		q := int64(int32(b)) - 0x4B400000
		q = min(max(q, -127), 127)
		if b&^(1<<31) > 0x7f800000 {
			q = 0
		}
		dst[k] = uint8(q + 128)
	}
}

// MulABtInt8Into computes dst = dequant(Aq·Wᵀ) + bias: dst is rows×w.Rows
// float32, aq holds rows quantized activation rows of w.KP offset-binary
// codes each, aScales their per-row scales, and acc is caller-provided int32
// scratch of at least w.Rows (arena-backed in the inference path, so the
// kernel allocates nothing). Every dispatch path fills the same int32
// accumulators, and the dequantization epilogue is the same one
// multiply-multiply-add per element in Go and in its vector twin, so the
// output is identical bits regardless of CPU features.
func MulABtInt8Into(dst *Mat32, aq []uint8, aScales []float32, w *Int8Weights, bias []float32, acc []int32) {
	rows := dst.Rows
	checkLen(dst.Cols, w.Rows)
	checkLen(len(aq), rows*w.KP)
	checkLen(len(aScales), rows)
	if len(acc) < w.Rows {
		panic("mat: int8 accumulator scratch shorter than w.Rows")
	}
	checkLen(len(bias), w.Rows)
	acc = acc[:w.Rows]
	for i := 0; i < rows; i++ {
		int8GemvInto(acc, aq[i*w.KP:(i+1)*w.KP], w)
		dequantRow(dst.Row(i), acc, w.Corr, w.Scales, bias, aScales[i])
	}
}

// dequantRowGo is the epilogue of one output row: out[j] =
// float32(acc[j]-corr[j])·(sa·scales[j]) + bias[j]. All slices have len(out)
// elements.
func dequantRowGo(out []float32, acc, corr []int32, scales, bias []float32, sa float32) {
	acc, corr, scales, bias = acc[:len(out)], corr[:len(out)], scales[:len(out)], bias[:len(out)]
	for j := range out {
		out[j] = float32(acc[j]-corr[j])*(sa*scales[j]) + bias[j]
	}
}

// int8GemvGo is the portable accumulator kernel: the raw offset-binary dot
// Σ u8(a)·s8(w) per output row, the exact integer every vector path must
// reproduce.
func int8GemvGo(acc []int32, arow []uint8, wdata []int8, kp int) {
	for j := range acc {
		wrow := wdata[j*kp : (j+1)*kp]
		var s int32
		for k, av := range arow {
			s += int32(av) * int32(wrow[k])
		}
		acc[j] = s
	}
}
