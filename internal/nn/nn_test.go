package nn

import (
	"math"
	"math/rand"
	"testing"

	"saccs/internal/mat"
)

// numGrad computes a central finite difference of f at p.W.Data[i].
func numGrad(f func() float64, x *float64) float64 {
	const h = 1e-5
	old := *x
	*x = old + h
	up := f()
	*x = old - h
	down := f()
	*x = old
	return (up - down) / (2 * h)
}

func relErr(a, b float64) float64 {
	return math.Abs(a-b) / math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func randVec(rng *rand.Rand, n int) mat.Vec {
	v := mat.NewVec(n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestLinearGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear(rng, "l", 4, 3)
	x := randVec(rng, 4)
	target := randVec(rng, 3)

	// loss = 0.5*||Wx+b - target||²
	loss := func() float64 {
		y := l.Forward(x)
		y.Sub(target)
		return 0.5 * y.Dot(y)
	}
	y := l.Forward(x)
	dy := y.Clone()
	dy.Sub(target)
	ZeroGrads(l.Params())
	dx := l.Backward(x, dy)

	for _, p := range l.Params() {
		for i := range p.W.Data {
			want := numGrad(loss, &p.W.Data[i])
			if relErr(p.G.Data[i], want) > 1e-6 {
				t.Fatalf("%s grad[%d]: got %v want %v", p.Name, i, p.G.Data[i], want)
			}
		}
	}
	for i := range x {
		want := numGrad(loss, &x[i])
		if relErr(dx[i], want) > 1e-6 {
			t.Fatalf("dx[%d]: got %v want %v", i, dx[i], want)
		}
	}
}

func TestEmbeddingLookupCloned(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	e := NewEmbedding(rng, "emb", 10, 4)
	v := e.Lookup(3)
	v[0] = 999
	if e.Table.W.At(3, 0) == 999 {
		t.Fatal("Lookup must return a copy (adversarial noise is added in place)")
	}
	if got := e.Lookup(-1); len(got) != 4 {
		t.Fatal("out-of-range id must fall back to row 0")
	}
	ZeroGrads(e.Params())
	e.Accumulate(3, mat.Vec{1, 2, 3, 4})
	if e.Table.G.At(3, 1) != 2 {
		t.Fatal("Accumulate failed")
	}
}

func TestLSTMGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := NewLSTM(rng, "lstm", 3, 2)
	xs := []mat.Vec{randVec(rng, 3), randVec(rng, 3), randVec(rng, 3)}
	targets := []mat.Vec{randVec(rng, 2), randVec(rng, 2), randVec(rng, 2)}

	loss := func() float64 {
		hs, _ := l.Forward(xs)
		var s float64
		for t2, h := range hs {
			d := h.Clone()
			d.Sub(targets[t2])
			s += 0.5 * d.Dot(d)
		}
		return s
	}
	hs, cache := l.Forward(xs)
	dhs := make([]mat.Vec, len(hs))
	for i, h := range hs {
		d := h.Clone()
		d.Sub(targets[i])
		dhs[i] = d
	}
	ZeroGrads(l.Params())
	dxs := l.Backward(cache, dhs)

	for _, p := range l.Params() {
		for i := range p.W.Data {
			want := numGrad(loss, &p.W.Data[i])
			if relErr(p.G.Data[i], want) > 1e-5 {
				t.Fatalf("%s grad[%d]: got %v want %v", p.Name, i, p.G.Data[i], want)
			}
		}
	}
	for ti, x := range xs {
		for i := range x {
			want := numGrad(loss, &x[i])
			if relErr(dxs[ti][i], want) > 1e-5 {
				t.Fatalf("dx[%d][%d]: got %v want %v", ti, i, dxs[ti][i], want)
			}
		}
	}
}

func TestBiLSTMGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	b := NewBiLSTM(rng, "bi", 3, 2)
	xs := []mat.Vec{randVec(rng, 3), randVec(rng, 3)}
	targets := []mat.Vec{randVec(rng, 4), randVec(rng, 4)}

	loss := func() float64 {
		ys, _ := b.Forward(xs)
		var s float64
		for t2, y := range ys {
			d := y.Clone()
			d.Sub(targets[t2])
			s += 0.5 * d.Dot(d)
		}
		return s
	}
	ys, cache := b.Forward(xs)
	dys := make([]mat.Vec, len(ys))
	for i, y := range ys {
		d := y.Clone()
		d.Sub(targets[i])
		dys[i] = d
	}
	ZeroGrads(b.Params())
	dxs := b.Backward(cache, dys)
	for _, p := range b.Params() {
		for i := range p.W.Data {
			want := numGrad(loss, &p.W.Data[i])
			if relErr(p.G.Data[i], want) > 1e-5 {
				t.Fatalf("%s grad[%d]: got %v want %v", p.Name, i, p.G.Data[i], want)
			}
		}
	}
	for ti, x := range xs {
		for i := range x {
			want := numGrad(loss, &x[i])
			if relErr(dxs[ti][i], want) > 1e-5 {
				t.Fatalf("dx[%d][%d]: got %v want %v", ti, i, dxs[ti][i], want)
			}
		}
	}
}

func TestBiLSTMOutputConcatenation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := NewBiLSTM(rng, "bi", 2, 3)
	xs := []mat.Vec{randVec(rng, 2), randVec(rng, 2), randVec(rng, 2)}
	ys, _ := b.Forward(xs)
	if len(ys) != 3 || len(ys[0]) != 6 {
		t.Fatalf("BiLSTM output shape wrong: %d×%d", len(ys), len(ys[0]))
	}
	// Forward half of first token must equal forward LSTM's own first output.
	fh, _ := b.Fwd.Forward(xs)
	for j := 0; j < 3; j++ {
		if ys[0][j] != fh[0][j] {
			t.Fatal("forward half mismatch")
		}
	}
}

func TestCRFGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	c := NewCRF(rng, "crf", 4)
	n := 5
	emissions := make([]mat.Vec, n)
	for i := range emissions {
		emissions[i] = randVec(rng, 4)
	}
	gold := []int{0, 2, 1, 3, 0}

	loss := func() float64 {
		l, _ := c.NLL(emissions, gold)
		return l
	}
	ZeroGrads(c.Params())
	_, dE := c.NLL(emissions, gold)
	// Snapshot analytic grads: the numGrad probes below call NLL again,
	// which keeps accumulating into c's gradient buffers.
	analytic := map[*Param][]float64{}
	for _, p := range c.Params() {
		analytic[p] = append([]float64(nil), p.G.Data...)
	}

	for _, p := range c.Params() {
		for i := range p.W.Data {
			want := numGrad(loss, &p.W.Data[i])
			if relErr(analytic[p][i], want) > 1e-5 {
				t.Fatalf("%s grad[%d]: got %v want %v", p.Name, i, analytic[p][i], want)
			}
		}
	}
	for ti := range emissions {
		for j := range emissions[ti] {
			want := numGrad(loss, &emissions[ti][j])
			if relErr(dE[ti][j], want) > 1e-5 {
				t.Fatalf("dE[%d][%d]: got %v want %v", ti, j, dE[ti][j], want)
			}
		}
	}
}

// bruteForceBest enumerates all label sequences to find the max-scoring path.
func bruteForceBest(c *CRF, emissions []mat.Vec) ([]int, float64) {
	n := len(emissions)
	best := math.Inf(-1)
	var bestPath []int
	path := make([]int, n)
	var rec func(t int, score float64)
	rec = func(t int, score float64) {
		if t == n {
			score += c.End.W.At(0, path[n-1])
			if score > best {
				best = score
				bestPath = append([]int(nil), path...)
			}
			return
		}
		for j := 0; j < c.L; j++ {
			s := score
			if t == 0 {
				s += c.start(j)
			} else {
				s += c.trans(path[t-1], j)
			}
			s += emissions[t][j]
			path[t] = j
			rec(t+1, s)
		}
	}
	rec(0, 0)
	return bestPath, best
}

func pathScore(c *CRF, emissions []mat.Vec, path []int) float64 {
	s := c.start(path[0]) + emissions[0][path[0]]
	for t := 1; t < len(path); t++ {
		s += c.trans(path[t-1], path[t]) + emissions[t][path[t]]
	}
	return s + c.End.W.At(0, path[len(path)-1])
}

func TestViterbiMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		c := NewCRF(rng, "crf", 3)
		NormalInit(rng, c.Trans, 1)
		NormalInit(rng, c.Start, 1)
		NormalInit(rng, c.End, 1)
		n := 1 + rng.Intn(5)
		emissions := make([]mat.Vec, n)
		for i := range emissions {
			emissions[i] = randVec(rng, 3)
		}
		got := c.Decode(emissions)
		_, wantScore := bruteForceBest(c, emissions)
		if s := pathScore(c, emissions, got); math.Abs(s-wantScore) > 1e-9 {
			t.Fatalf("Viterbi score %v != brute force %v", s, wantScore)
		}
	}
}

func TestBeamDecodeFullWidthMatchesViterbi(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 10; trial++ {
		c := NewCRF(rng, "crf", 4)
		NormalInit(rng, c.Trans, 1)
		n := 2 + rng.Intn(5)
		emissions := make([]mat.Vec, n)
		for i := range emissions {
			emissions[i] = randVec(rng, 4)
		}
		vit := c.Decode(emissions)
		// Width L² is guaranteed exact for a first-order chain.
		beam := c.BeamDecode(emissions, 16)
		if pathScore(c, emissions, beam) < pathScore(c, emissions, vit)-1e-9 {
			t.Fatalf("wide beam found worse path than Viterbi: %v vs %v", beam, vit)
		}
	}
}

func TestBeamDecodeNarrowStillValid(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c := NewCRF(rng, "crf", 5)
	emissions := []mat.Vec{randVec(rng, 5), randVec(rng, 5), randVec(rng, 5)}
	got := c.BeamDecode(emissions, 1)
	if len(got) != 3 {
		t.Fatalf("beam path length %d", len(got))
	}
	for _, l := range got {
		if l < 0 || l >= 5 {
			t.Fatalf("invalid label %d", l)
		}
	}
}

func TestCRFConstraintsRespectedInDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	c := NewCRF(rng, "crf", 3)
	// Label 2 may never follow label 1, and sequences may not start with 2.
	c.SetConstraints(
		func(a, b int) bool { return !(a == 1 && b == 2) },
		func(l int) bool { return l != 2 },
	)
	// Emissions strongly prefer the forbidden pattern.
	emissions := []mat.Vec{{0, 10, -10}, {0, 0, 10}}
	got := c.Decode(emissions)
	if got[0] == 2 {
		t.Fatal("decoded a forbidden start label")
	}
	if got[0] == 1 && got[1] == 2 {
		t.Fatal("decoded a forbidden transition")
	}
}

func TestCRFTrainsToValidTagging(t *testing.T) {
	// A tiny CRF + fixed emissions should learn a toy pattern A B A B.
	rng := rand.New(rand.NewSource(11))
	c := NewCRF(rng, "crf", 2)
	opt := NewAdam(0.1)
	emissions := []mat.Vec{{0, 0}, {0, 0}, {0, 0}, {0, 0}}
	gold := []int{0, 1, 0, 1}
	var loss float64
	for step := 0; step < 200; step++ {
		ZeroGrads(c.Params())
		loss, _ = c.NLL(emissions, gold)
		opt.Step(c.Params())
	}
	if loss > 0.1 {
		t.Fatalf("CRF failed to fit toy pattern: loss %v", loss)
	}
	got := c.Decode(emissions)
	for i, l := range got {
		if l != gold[i] {
			t.Fatalf("decode %v != gold %v", got, gold)
		}
	}
}

func TestSoftmaxCE(t *testing.T) {
	logits := mat.Vec{2, 1, 0}
	loss, d := SoftmaxCE(logits.Clone(), 0)
	if loss <= 0 {
		t.Fatal("loss must be positive")
	}
	// Gradient sums to zero and is negative at gold.
	if math.Abs(d.Sum()) > 1e-9 {
		t.Fatalf("gradient sum %v", d.Sum())
	}
	if d[0] >= 0 {
		t.Fatal("gold gradient must be negative")
	}
	// Finite-difference check.
	for i := range logits {
		x := logits.Clone()
		want := numGrad(func() float64 {
			l, _ := SoftmaxCE(x.Clone(), 0)
			return l
		}, &x[i])
		if relErr(d[i], want) > 1e-6 {
			t.Fatalf("dlogits[%d]: got %v want %v", i, d[i], want)
		}
	}
}

func TestBCELogit(t *testing.T) {
	loss1, p1, d1 := BCELogit(3, 1)
	if p1 < 0.9 || d1 >= 0 || loss1 <= 0 {
		t.Fatalf("positive case: loss=%v p=%v d=%v", loss1, p1, d1)
	}
	loss0, p0, d0 := BCELogit(3, 0)
	if loss0 <= loss1 || d0 <= 0 || p0 != p1 {
		t.Fatalf("negative case: loss=%v p=%v d=%v", loss0, p0, d0)
	}
	// Gradient check.
	x := 0.7
	want := numGrad(func() float64 {
		l, _, _ := BCELogit(x, 1)
		return l
	}, &x)
	_, _, got := BCELogit(0.7, 1)
	if relErr(got, want) > 1e-6 {
		t.Fatalf("BCE grad: got %v want %v", got, want)
	}
}

func TestFGSM(t *testing.T) {
	d := FGSMSeq([]mat.Vec{{0.3, -2, 0}}, 0.5)[0]
	if d[0] != 0.5 || d[1] != -0.5 || d[2] != 0 {
		t.Fatalf("FGSM: %v", d)
	}
	// l∞ bound holds for any input.
	for _, v := range FGSMSeq([]mat.Vec{{100, -100, 1e-9}}, 0.2)[0] {
		if math.Abs(v) > 0.2 {
			t.Fatalf("FGSM exceeds l∞ ball: %v", v)
		}
	}
	seq := FGSMSeq([]mat.Vec{{1}, {-1}}, 0.1)
	if seq[0][0] != 0.1 || seq[1][0] != -0.1 {
		t.Fatalf("FGSMSeq: %v", seq)
	}
}

func TestDropout(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	d := NewDropout(rng, 0.5)
	xs := []mat.Vec{{1, 1, 1, 1, 1, 1, 1, 1}, {1, 1, 1, 1, 1, 1, 1, 1}}
	ys, masks := d.ForwardSeq(xs)
	if masks == nil {
		t.Fatal("training dropout must return masks")
	}
	for r, mask := range masks {
		for i, m := range mask {
			if m {
				if ys[r][i] != 2 { // 1/(1-0.5)
					t.Fatalf("inverted scaling wrong: %v", ys[r][i])
				}
			} else if ys[r][i] != 0 {
				t.Fatal("dropped unit must be zero")
			}
		}
	}
	dys := []mat.Vec{{1, 1, 1, 1, 1, 1, 1, 1}, {1, 1, 1, 1, 1, 1, 1, 1}}
	dxs := d.BackwardSeq(dys, masks)
	for r, dx := range dxs {
		for i := range dx {
			if masks[r][i] && dx[i] != 2 || !masks[r][i] && dx[i] != 0 {
				t.Fatalf("backward mask routing wrong at %d/%d: %v", r, i, dx[i])
			}
		}
	}
	d.Train = false
	ys2, masks2 := d.ForwardSeq(xs)
	if masks2 != nil {
		t.Fatal("eval mode must not mask")
	}
	for r := range ys2 {
		for i := range ys2[r] {
			if ys2[r][i] != xs[r][i] {
				t.Fatal("eval mode must be identity")
			}
		}
	}
	if dxs := d.BackwardSeq(dys, nil); dxs[1][3] != 1 {
		t.Fatal("backward without masks must be identity")
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	p := NewParam("x", 1, 2)
	p.W.Data[0], p.W.Data[1] = 5, -3
	opt := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		p.ZeroGrad()
		// f = (x-1)² + (y-2)²
		p.G.Data[0] = 2 * (p.W.Data[0] - 1)
		p.G.Data[1] = 2 * (p.W.Data[1] - 2)
		opt.Step([]*Param{p})
	}
	if math.Abs(p.W.Data[0]-1) > 1e-3 || math.Abs(p.W.Data[1]-2) > 1e-3 {
		t.Fatalf("Adam did not converge: %v", p.W.Data)
	}
}

func TestSGDWithWeightDecay(t *testing.T) {
	p := NewParam("x", 1, 1)
	p.W.Data[0] = 1
	opt := &SGD{LR: 0.1, WeightDecay: 0.5}
	p.G.Data[0] = 0
	opt.Step([]*Param{p})
	if got := p.W.Data[0]; math.Abs(got-0.95) > 1e-12 {
		t.Fatalf("weight decay: got %v want 0.95", got)
	}
}

func TestClipGrads(t *testing.T) {
	p := NewParam("x", 1, 2)
	p.G.Data[0], p.G.Data[1] = 3, 4 // norm 5
	ClipGrads([]*Param{p}, 1)
	if n := GradNorm([]*Param{p}); math.Abs(n-1) > 1e-9 {
		t.Fatalf("clipped norm %v", n)
	}
	// Below threshold: unchanged.
	p.G.Data[0], p.G.Data[1] = 0.3, 0.4
	ClipGrads([]*Param{p}, 1)
	if p.G.Data[0] != 0.3 {
		t.Fatal("small gradients must not be rescaled")
	}
}

func TestActivationGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x := randVec(rng, 6)
	dy := randVec(rng, 6)

	// GELU
	dx := mat.NewVec(len(x))
	GELUBackwardInto(dx, x, dy)
	for i := range x {
		xi := x.Clone()
		want := numGrad(func() float64 {
			return GELUVec(xi)[i] * dy[i]
		}, &xi[i])
		if relErr(dx[i], want) > 1e-5 {
			t.Fatalf("GELU grad[%d]: got %v want %v", i, dx[i], want)
		}
	}
	// ReLU
	y := ReLUVec(x)
	dxr := ReLUBackward(y, dy)
	for i := range x {
		want := 0.0
		if x[i] > 0 {
			want = dy[i]
		}
		if dxr[i] != want {
			t.Fatalf("ReLU grad[%d]: got %v want %v", i, dxr[i], want)
		}
	}
}

func TestSigmoidStable(t *testing.T) {
	if got := Sigmoid(1000); got != 1 {
		t.Fatalf("Sigmoid(1000)=%v", got)
	}
	if got := Sigmoid(-1000); got != 0 {
		t.Fatalf("Sigmoid(-1000)=%v", got)
	}
	if math.Abs(Sigmoid(0)-0.5) > 1e-12 {
		t.Fatal("Sigmoid(0) != 0.5")
	}
}

func TestCRFEmptySequence(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	c := NewCRF(rng, "crf", 3)
	if loss, dE := c.NLL(nil, nil); loss != 0 || dE != nil {
		t.Fatal("empty NLL must be zero")
	}
	if got := c.Decode(nil); got != nil {
		t.Fatal("empty Decode must be nil")
	}
	if got := c.BeamDecode(nil, 4); got != nil {
		t.Fatal("empty BeamDecode must be nil")
	}
}
