package nn

import (
	"math"
	"math/rand"
	"testing"

	"saccs/internal/mat"
)

func randSeq(rng *rand.Rand, n, dim int) []mat.Vec {
	xs := make([]mat.Vec, n)
	for i := range xs {
		v := mat.NewVec(dim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		xs[i] = v
	}
	return xs
}

// The inference kernels promise bit-identical results to their training
// twins — not approximately equal: the extraction cache and the differential
// oracles compare decoded label paths exactly, so any reordering of float
// operations would surface as a correctness bug, not a tolerance issue. The
// GEMM forwards are pinned in infer_batch_test.go.

func TestGELUIntoMatchesGELUVec(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	x := randSeq(rng, 1, 16)[0]
	want := GELUVec(x)
	got := mat.NewVec(len(x))
	GELUInto(got, x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("gelu[%d]: %v != %v", i, got[i], want[i])
		}
	}
}

// TestGELURowsIdenticalToScalar pins GELUInto and GELUBackwardInto, which
// run their tanh as one mat.TanhRow, to the per-element expressions with
// math.Tanh, on both kernel paths, at ragged widths and over inputs that
// reach tanh's rational arm, its exp arm and its saturation.
func TestGELURowsIdenticalToScalar(t *testing.T) {
	const c = 0.7978845608028654
	onBothKernelPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(33))
		for _, n := range []int{1, 5, 8, 13, 17, 64, 128} {
			x, dy := randVec(rng, n), randVec(rng, n)
			for i := range x {
				x[i] *= []float64{0.1, 1, 4, 40}[i%4]
			}
			y, dx := mat.NewVec(n), mat.NewVec(n)
			GELUInto(y, x)
			GELUBackwardInto(dx, x, dy)
			for i, v := range x {
				if want := gelu(v); y[i] != want {
					t.Fatalf("n=%d GELUInto[%d](%v) = %v, want %v", n, i, v, y[i], want)
				}
				th := math.Tanh(c * (v + 0.044715*v*v*v))
				want := dy[i] * (0.5*(1+th) + 0.5*v*(1-th*th)*(c*(1+3*0.044715*v*v)))
				if dx[i] != want {
					t.Fatalf("n=%d GELUBackwardInto[%d](%v) = %v, want %v", n, i, v, dx[i], want)
				}
			}
		}
	})
}

func TestDecodeRespectsConstraints(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	c := NewCRF(rng, "t", 4)
	// Only transitions i -> (i+1)%4 allowed; only label 0 may start.
	c.SetConstraints(
		func(a, b int) bool { return b == (a+1)%4 },
		func(l int) bool { return l == 0 },
	)
	emissions := packRows(randSeq(rng, 8, 4), 4)
	var a Arena
	path := c.Decode(emissions, &a)
	if path[0] != 0 {
		t.Fatalf("invalid start %d", path[0])
	}
	for i := 1; i < len(path); i++ {
		if path[i] != (path[i-1]+1)%4 {
			t.Fatalf("invalid transition %d -> %d", path[i-1], path[i])
		}
	}
}

func TestDecodeZeroAllocsWhenWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	c := NewCRF(rng, "t", 5)
	emissions := packRows(randSeq(rng, 20, 5), 5)
	var a Arena
	c.Decode(emissions, &a) // warm the arena
	allocs := testing.AllocsPerRun(100, func() {
		a.Reset()
		c.Decode(emissions, &a)
	})
	if allocs != 0 {
		t.Fatalf("warm Decode allocates %v times per run, want 0", allocs)
	}
}

func TestArenaReuseAndGrowth(t *testing.T) {
	var a Arena
	v1 := a.Vec(8)
	for i := range v1 {
		v1[i] = 1
	}
	// Growth must not corrupt v1: the old backing array stays with it.
	v2 := a.Vec(100_000)
	_ = v2
	for i := range v1 {
		if v1[i] != 1 {
			t.Fatal("growth clobbered an outstanding slice")
		}
	}
	a.Reset()
	v3 := a.Vec(8)
	for i := range v3 {
		if v3[i] != 0 {
			t.Fatal("Vec after Reset not zeroed")
		}
	}
	is := a.Ints(4)
	for _, x := range is {
		if x != 0 {
			t.Fatal("Ints not zeroed")
		}
	}
}
