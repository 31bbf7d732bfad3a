//go:build !amd64

package mat

// hasAVX512 mirrors the amd64 detection flag so tests that force the scalar
// path compile everywhere.
var hasAVX512 = false

// gemmAsmInto has no vector implementation off amd64; MatMulInto and
// MatMulAddInto always take the scalar blocked path.
func gemmAsmInto(dst, a, b *Mat, accumulate bool) bool { return false }

func addVecFast(dst, src Vec) { dst.Add(src) }

func scaleFast(v []float64, s float64) { scaleGo(v, s) }

func adamStepFast(w, g, m, v Vec, c *AdamCoeffs) { adamStepGo(w, g, m, v, c) }
