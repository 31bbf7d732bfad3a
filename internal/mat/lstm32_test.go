package mat

import (
	"math"
	"math/rand"
	"testing"
)

// lstmSeqLens are the sequence lengths the recurrence tests run: empty, one
// and two steps, around one 16-token block, the served mean (19) and MaxLen.
var lstmSeqLens = []int{0, 1, 2, 15, 16, 17, 19, 48}

// lstmCase is a random BiLSTM recurrence: both directions' input
// projections (normal, with a few large logits so that some gates
// saturate) and recurrent weights (normal, at a trained layer's scale).
type lstmCase struct {
	zf, zb, whf, whb *Mat32
}

func newLSTMCase(rng *rand.Rand, n, H int) lstmCase {
	normal := func(rows, cols int, scale float64, spike bool) *Mat32 {
		m := NewMat32(rows, cols)
		for i := range m.Data {
			m.Data[i] = float32(rng.NormFloat64() * scale)
			if spike && rng.Intn(16) == 0 {
				m.Data[i] *= 20
			}
		}
		return m
	}
	return lstmCase{
		zf: normal(n, 4*H, 1.5, true), zb: normal(n, 4*H, 1.5, true),
		whf: normal(H, 4*H, 0.4, false), whb: normal(H, 4*H, 0.4, false),
	}
}

// run writes the BiLSTM's hidden states into a fresh n×2H matrix whose
// backing array runs on into a NaN sentinel, on the current path.
func (c lstmCase) run(n, H int) *Mat32 {
	out := &Mat32{Rows: n, Cols: 2 * H, Data: rowWithGuard(n * 2 * H)}
	LSTMRecur32(out,
		LSTMDir32{Z: c.zf, WhT: c.whf},
		LSTMDir32{Z: c.zb, WhT: c.whb, Off: H, Reverse: true})
	return out
}

// TestLSTMRecur32PathsBitIdentical runs a BiLSTM's recurrence at every H
// the vector kernel takes (1..64, so every masked last block) and at every
// length of lstmSeqLens, on the vector path and on the Go path, and
// requires the same bits and nothing written past out.
func TestLSTMRecur32PathsBitIdentical(t *testing.T) {
	if !hasAVX512 {
		t.Skip("no AVX-512 on this machine; only the Go path exists")
	}
	defer func() { hasAVX512 = true }()
	rng := rand.New(rand.NewSource(51))
	for H := 1; H <= lstmVecMaxH; H++ {
		for _, n := range lstmSeqLens {
			c := newLSTMCase(rng, n, H)
			hasAVX512 = true
			vec := c.run(n, H)
			hasAVX512 = false
			pure := c.run(n, H)
			checkGuard32(t, "LSTMRecur32", vec.Data)
			for i := range vec.Data {
				if math.Float32bits(vec.Data[i]) != math.Float32bits(pure.Data[i]) {
					t.Fatalf("H %d n %d: h[%d][%d] = %v on AVX-512, %v in Go",
						H, n, i/(2*H), i%(2*H), vec.Data[i], pure.Data[i])
				}
			}
		}
	}
}

// TestLSTMRecur32DirectionsIndependent: two directions in one call write
// what each writes alone — the interleaved kernel shares nothing between
// them — on both paths, and a direction reads only its own columns (the
// other half of out starts as NaN and stays so).
func TestLSTMRecur32DirectionsIndependent(t *testing.T) {
	paths := []bool{false}
	if hasAVX512 {
		paths = append(paths, true)
		defer func() { hasAVX512 = true }()
	}
	rng := rand.New(rand.NewSource(52))
	for _, H := range []int{1, 7, 16, 32, 33, 64, 65, 80} {
		for _, n := range []int{1, 5, 19} {
			c := newLSTMCase(rng, n, H)
			for _, vec := range paths {
				hasAVX512 = vec
				both := c.run(n, H)
				fwd, bwd := NewMat32(n, 2*H), NewMat32(n, 2*H)
				for i := range fwd.Data {
					fwd.Data[i] = float32(math.NaN())
					bwd.Data[i] = float32(math.NaN())
				}
				LSTMRecur32(fwd, LSTMDir32{Z: c.zf, WhT: c.whf})
				LSTMRecur32(bwd, LSTMDir32{Z: c.zb, WhT: c.whb, Off: H, Reverse: true})
				for i := 0; i < n; i++ {
					for j := 0; j < 2*H; j++ {
						want, other := fwd.Data[i*2*H+j], bwd.Data[i*2*H+j]
						if j >= H {
							want, other = other, want
						}
						got := both.Data[i*2*H+j]
						if math.Float32bits(got) != math.Float32bits(want) || other == other {
							t.Fatalf("H %d n %d avx512=%v: h[%d][%d] = %v together, %v alone (other half %v)",
								H, n, vec, i, j, got, want, other)
						}
					}
				}
			}
		}
	}
}

// TestLSTMRecur32MatchesStepLoop pins the kernel to the loop it replaced in
// the decode: per step a one-row MatMulF32Into against Whᵀ, z = zx + zh,
// the gate row kernels, then the cell and hidden state element by element.
func TestLSTMRecur32MatchesStepLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, H := range []int{3, 16, 32, 40} {
		n := 19
		c := newLSTMCase(rng, n, H)
		got := c.run(n, H)
		want := NewMat32(n, 2*H)
		for d, dir := range []struct {
			z, wht *Mat32
			rev    bool
		}{{c.zf, c.whf, false}, {c.zb, c.whb, true}} {
			h, cell, zh := NewMat32(1, H), make([]float32, H), NewMat32(1, 4*H)
			z, g := make([]float32, 4*H), make([]float32, 4*H)
			for s := 0; s < n; s++ {
				row := s
				if dir.rev {
					row = n - 1 - s
				}
				MatMulF32Into(zh, h, dir.wht)
				for j := range z {
					z[j] = dir.z.Row(row)[j] + zh.Data[j]
				}
				SigmoidRow32(g[:2*H], z[:2*H])
				TanhRow32(g[2*H:3*H], z[2*H:3*H])
				SigmoidRow32(g[3*H:], z[3*H:])
				for j := range cell {
					cell[j] = g[H+j]*cell[j] + g[j]*g[2*H+j]
				}
				TanhRow32(h.Data, cell)
				for j := range h.Data {
					h.Data[j] *= g[3*H+j]
				}
				copy(want.Row(row)[d*H:], h.Data)
			}
		}
		requireBitEqual32(t, "LSTMRecur32", want, got)
	}
}
