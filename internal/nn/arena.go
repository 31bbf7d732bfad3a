package nn

import "saccs/internal/mat"

// Arena is a bump allocator for the forward passes: vectors, matrices and
// their headers, and int scratch are carved out of a few flat backing arrays
// that one Reset recycles wholesale. A warm arena makes an entire forward pass
// (embeddings → transformer blocks → BiLSTM → projection → Viterbi)
// allocation-free, and a training Tape is an Arena that also records what
// the backward pass reads.
//
// Ownership contract: every slice or matrix an Arena method returns belongs
// to the arena and is valid only until the next Reset. An Arena serves
// exactly one goroutine at a time; callers that share arenas across
// goroutines (tagger's decode) recycle them through a sync.Pool.
//
// Growth never invalidates outstanding slices: when a backing array is
// exhausted the arena allocates a larger one and leaves the old array to the
// slices already handed out. After one full pass the arena has seen the peak
// demand and subsequent Reset/alloc cycles touch no allocator at all.
type Arena struct {
	floats []float64
	nf     int
	ints   []int
	ni     int
	mats   []mat.Mat
	nm     int

	// Reduced-precision pools for the quantized inference path: float32
	// activations, offset-binary uint8 activation codes, int32 GEMM
	// accumulators, and Mat32 headers. Same contract as the float64 pools.
	f32s   []float32
	nf32   int
	u8s    []uint8
	nu8    int
	i32s   []int32
	ni32   int
	mat32s []mat.Mat32
	nm32   int
}

// Reset recycles the arena: every previously returned slice is dead and the
// backing arrays are reused from the start.
func (a *Arena) Reset() {
	a.nf, a.ni, a.nm = 0, 0, 0
	a.nf32, a.nu8, a.ni32, a.nm32 = 0, 0, 0, 0
}

// Vec returns a zeroed vector of length n backed by the arena.
func (a *Arena) Vec(n int) mat.Vec {
	v := a.rawVec(n)
	for i := range v {
		v[i] = 0
	}
	return v
}

// rawVec returns an uninitialized arena vector. Callers must overwrite every
// element before reading — it backs Vec and MatRaw.
func (a *Arena) rawVec(n int) mat.Vec {
	if a.nf+n > len(a.floats) {
		a.floats = make([]float64, grow(len(a.floats), n, 1024))
		a.nf = 0
	}
	v := a.floats[a.nf : a.nf+n : a.nf+n]
	a.nf += n
	return v
}

// MatRaw is Mat without the zero fill: the caller must overwrite every
// element before reading. The batched kernels use it for outputs a GEMM or
// row copy fully covers, where zeroing would be pure overhead.
func (a *Arena) MatRaw(rows, cols int) *mat.Mat {
	if a.nm >= len(a.mats) {
		a.mats = make([]mat.Mat, grow(len(a.mats), 1, 16))
		a.nm = 0
	}
	m := &a.mats[a.nm]
	a.nm++
	m.Rows, m.Cols = rows, cols
	m.Data = a.rawVec(rows * cols)
	return m
}

// Mat returns a zeroed rows×cols matrix backed by the arena: the data comes
// from the float pool and the header from a pooled header array, so the
// batched-inference kernels stay allocation-free once the arena is warm. The
// same ownership contract as Vec applies — the matrix (header and data) is
// valid only until the next Reset.
func (a *Arena) Mat(rows, cols int) *mat.Mat {
	m := a.MatRaw(rows, cols)
	for i := range m.Data {
		m.Data[i] = 0
	}
	return m
}

// Ints returns a zeroed int slice of length n backed by the arena.
func (a *Arena) Ints(n int) []int {
	if a.ni+n > len(a.ints) {
		a.ints = make([]int, grow(len(a.ints), n, 256))
		a.ni = 0
	}
	s := a.ints[a.ni : a.ni+n : a.ni+n]
	a.ni += n
	for i := range s {
		s[i] = 0
	}
	return s
}

// F32Raw returns an uninitialized float32 slice backed by the arena. Callers
// must overwrite every element before reading — the quantized kernels fully
// fill their outputs.
func (a *Arena) F32Raw(n int) []float32 {
	if a.nf32+n > len(a.f32s) {
		a.f32s = make([]float32, grow(len(a.f32s), n, 1024))
		a.nf32 = 0
	}
	v := a.f32s[a.nf32 : a.nf32+n : a.nf32+n]
	a.nf32 += n
	return v
}

// U8Raw returns an uninitialized uint8 slice backed by the arena — the
// activation-code buffers QuantizeRowU8 fully overwrites (padding included).
func (a *Arena) U8Raw(n int) []uint8 {
	if a.nu8+n > len(a.u8s) {
		a.u8s = make([]uint8, grow(len(a.u8s), n, 4096))
		a.nu8 = 0
	}
	v := a.u8s[a.nu8 : a.nu8+n : a.nu8+n]
	a.nu8 += n
	return v
}

// I32Raw returns an uninitialized int32 slice backed by the arena — the GEMM
// accumulator scratch the int8 kernels fully overwrite.
func (a *Arena) I32Raw(n int) []int32 {
	if a.ni32+n > len(a.i32s) {
		a.i32s = make([]int32, grow(len(a.i32s), n, 1024))
		a.ni32 = 0
	}
	v := a.i32s[a.ni32 : a.ni32+n : a.ni32+n]
	a.ni32 += n
	return v
}

// Mat32Raw is the float32 twin of MatRaw: an uninitialized rows×cols Mat32
// whose header and data both come from arena pools.
func (a *Arena) Mat32Raw(rows, cols int) *mat.Mat32 {
	if a.nm32 >= len(a.mat32s) {
		a.mat32s = make([]mat.Mat32, grow(len(a.mat32s), 1, 16))
		a.nm32 = 0
	}
	m := &a.mat32s[a.nm32]
	a.nm32++
	m.Rows, m.Cols = rows, cols
	m.Data = a.F32Raw(rows * cols)
	return m
}

// grow picks the next backing-array size: doubled, at least min, and always
// enough for the pending request.
func grow(cur, need, min int) int {
	n := cur * 2
	if n < min {
		n = min
	}
	if n < need {
		n = need
	}
	return n
}
