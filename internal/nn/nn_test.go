package nn

import (
	"math"
	"math/rand"
	"slices"
	"sort"
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
		y.AddScaled(-1, target)
		return 0.5 * y.Dot(y)
	}
	y := l.Forward(x)
	dy := slices.Clone(y)
	dy.AddScaled(-1, target)
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

// seqLoss is 0.5·Σ‖y_t − target_t‖² over a sequence's rows, and upstream
// returns its gradient with respect to y.
func seqLoss(y *mat.Mat, targets []mat.Vec) float64 {
	var s float64
	for i, tg := range targets {
		d := slices.Clone(y.Row(i))
		d.AddScaled(-1, tg)
		s += 0.5 * d.Dot(d)
	}
	return s
}

func upstream(y *mat.Mat, targets []mat.Vec) *mat.Mat {
	dy := mat.NewMat(y.Rows, y.Cols)
	for i, tg := range targets {
		copy(dy.Row(i), y.Row(i))
		dy.Row(i).AddScaled(-1, tg)
	}
	return dy
}

// gradCheckSeq checks a sequence layer's taped backward against finite
// differences of seqLoss over its taped forward (which transposes the
// weights it reads on each call, so the perturbations take effect), for
// every parameter and every input element.
func gradCheckSeq(t *testing.T, params []*Param, x *mat.Mat, targets []mat.Vec,
	forward func(x *mat.Mat, a *Arena, tp *Tape) *mat.Mat, backward func(tp *Tape, dy *mat.Mat) *mat.Mat) {
	t.Helper()
	loss := func() float64 {
		var tp Tape
		return seqLoss(forward(x, &tp.Arena, &tp), targets)
	}
	var tape Tape
	y := forward(x, &tape.Arena, &tape)
	ZeroGrads(params)
	dx := backward(&tape, upstream(y, targets))
	for _, p := range params {
		for i := range p.W.Data {
			want := numGrad(loss, &p.W.Data[i])
			if relErr(p.G.Data[i], want) > 1e-5 {
				t.Fatalf("%s grad[%d]: got %v want %v", p.Name, i, p.G.Data[i], want)
			}
		}
	}
	for i := range x.Data {
		want := numGrad(loss, &x.Data[i])
		if relErr(dx.Data[i], want) > 1e-5 {
			t.Fatalf("dx[%d]: got %v want %v", i, dx.Data[i], want)
		}
	}
}

func TestLSTMGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := NewLSTM(rng, "lstm", 3, 2)
	x := fromRows([][]float64{randVec(rng, 3), randVec(rng, 3), randVec(rng, 3)})
	targets := []mat.Vec{randVec(rng, 2), randVec(rng, 2), randVec(rng, 2)}
	gradCheckSeq(t, l.Params(), x, targets, l.Forward, l.Backward)
}

func TestBiLSTMGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	b := NewBiLSTM(rng, "bi", 3, 2)
	x := fromRows([][]float64{randVec(rng, 3), randVec(rng, 3)})
	targets := []mat.Vec{randVec(rng, 4), randVec(rng, 4)}
	gradCheckSeq(t, b.Params(), x, targets, b.Forward, b.Backward)
}

func TestBiLSTMOutputConcatenation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := NewBiLSTM(rng, "bi", 2, 3)
	x := fromRows([][]float64{randVec(rng, 2), randVec(rng, 2), randVec(rng, 2)})
	var a Arena
	ys := b.Forward(x, &a, nil)
	if ys.Rows != 3 || ys.Cols != 6 {
		t.Fatalf("BiLSTM output shape wrong: %d×%d", ys.Rows, ys.Cols)
	}
	// Forward half of first token must equal forward LSTM's own first output.
	fh := b.Fwd.Forward(x, &a, nil)
	for j := 0; j < 3; j++ {
		if ys.At(0, j) != fh.At(0, j) {
			t.Fatal("forward half mismatch")
		}
	}
}

func TestCRFGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	c := NewCRF(rng, "crf", 4)
	n := 5
	emissions := mat.NewMat(n, 4)
	for i := 0; i < n; i++ {
		copy(emissions.Row(i), randVec(rng, 4))
	}
	gold := []int{0, 2, 1, 3, 0}

	var a Arena
	loss := func() float64 {
		l, _ := c.NLL(emissions, gold, &a)
		return l
	}
	ZeroGrads(c.Params())
	_, dE := c.NLL(emissions, gold, &a)
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
	for ti := 0; ti < n; ti++ {
		for j := 0; j < 4; j++ {
			want := numGrad(loss, &emissions.Row(ti)[j])
			if relErr(dE.At(ti, j), want) > 1e-5 {
				t.Fatalf("dE[%d][%d]: got %v want %v", ti, j, dE.At(ti, j), want)
			}
		}
	}
}

// bruteForceBest enumerates all label sequences to find the max-scoring path.
func bruteForceBest(c *CRF, emissions *mat.Mat) ([]int, float64) {
	n := emissions.Rows
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
			s += emissions.At(t, j)
			path[t] = j
			rec(t+1, s)
		}
	}
	rec(0, 0)
	return bestPath, best
}

func pathScore(c *CRF, emissions *mat.Mat, path []int) float64 {
	s := c.start(path[0]) + emissions.At(0, path[0])
	for t := 1; t < len(path); t++ {
		s += c.trans(path[t-1], path[t]) + emissions.At(t, path[t])
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
		emissions := mat.NewMat(n, 3)
		for i := 0; i < n; i++ {
			copy(emissions.Row(i), randVec(rng, 3))
		}
		var a Arena
		got := c.Decode(emissions, &a)
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
		emissions := mat.NewMat(n, 4)
		for i := 0; i < n; i++ {
			copy(emissions.Row(i), randVec(rng, 4))
		}
		var a Arena
		vit := c.Decode(emissions, &a)
		// Width L² is guaranteed exact for a first-order chain.
		beam := beamDecode(c, emissions, 16)
		if pathScore(c, emissions, beam) < pathScore(c, emissions, vit)-1e-9 {
			t.Fatalf("wide beam found worse path than Viterbi: %v vs %v", beam, vit)
		}
	}
}

func TestBeamDecodeNarrowStillValid(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c := NewCRF(rng, "crf", 5)
	emissions := fromRows([][]float64{randVec(rng, 5), randVec(rng, 5), randVec(rng, 5)})
	got := beamDecode(c, emissions, 1)
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
	emissions := fromRows([][]float64{{0, 10, -10}, {0, 0, 10}})
	var a Arena
	got := c.Decode(emissions, &a)
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
	emissions := mat.NewMat(4, 2)
	gold := []int{0, 1, 0, 1}
	var loss float64
	var a Arena
	for step := 0; step < 200; step++ {
		ZeroGrads(c.Params())
		a.Reset()
		loss, _ = c.NLL(emissions, gold, &a)
		opt.Step(c.Params())
	}
	if loss > 0.1 {
		t.Fatalf("CRF failed to fit toy pattern: loss %v", loss)
	}
	got := c.Decode(emissions, &a)
	for i, l := range got {
		if l != gold[i] {
			t.Fatalf("decode %v != gold %v", got, gold)
		}
	}
}

func TestSoftmaxCE(t *testing.T) {
	logits := mat.Vec{2, 1, 0}
	d := mat.NewVec(len(logits))
	loss := SoftmaxCE(d, logits, 0)
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
		x := slices.Clone(logits)
		want := numGrad(func() float64 {
			return SoftmaxCE(slices.Clone(x), x, 0)
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
	var a Arena
	d := FGSM(fromRows([][]float64{{0.3, -2, 0}}), 0.5, &a).Row(0)
	if d[0] != 0.5 || d[1] != -0.5 || d[2] != 0 {
		t.Fatalf("FGSM: %v", d)
	}
	// l∞ bound holds for any input.
	for _, v := range FGSM(fromRows([][]float64{{100, -100, 1e-9}}), 0.2, &a).Data {
		if math.Abs(v) > 0.2 {
			t.Fatalf("FGSM exceeds l∞ ball: %v", v)
		}
	}
	seq := FGSM(fromRows([][]float64{{1}, {-1}}), 0.1, &a)
	if seq.At(0, 0) != 0.1 || seq.At(1, 0) != -0.1 {
		t.Fatalf("FGSM rows: %v", seq.Data)
	}
}

func TestDropout(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	d := NewDropout(rng, 0.5)
	x := fromRows([][]float64{{1, 1, 1, 1, 1, 1, 1, 1}, {1, 1, 1, 1, 1, 1, 1, 1}})
	var tape Tape
	y := d.Forward(x, &tape.Arena, &tape)
	keep := tape.recs[len(tape.recs)-1]
	if keep == nil {
		t.Fatal("training dropout must record a mask")
	}
	for i, k := range keep.Data {
		if k != 0 {
			if y.Data[i] != 2 { // 1/(1-0.5)
				t.Fatalf("inverted scaling wrong: %v", y.Data[i])
			}
		} else if y.Data[i] != 0 {
			t.Fatal("dropped unit must be zero")
		}
	}
	dy := fromRows([][]float64{{1, 1, 1, 1, 1, 1, 1, 1}, {1, 1, 1, 1, 1, 1, 1, 1}})
	dx := d.Backward(&tape, dy)
	for i, k := range keep.Data {
		if k != 0 && dx.Data[i] != 2 || k == 0 && dx.Data[i] != 0 {
			t.Fatalf("backward mask routing wrong at %d: %v", i, dx.Data[i])
		}
	}
	d.Train = false
	tape.Reset()
	if y2 := d.Forward(x, &tape.Arena, &tape); y2 != x {
		t.Fatal("eval mode must be identity")
	}
	if tape.recs[0] != nil {
		t.Fatal("eval mode must not mask")
	}
	if dx := d.Backward(&tape, dy); dx != dy {
		t.Fatal("backward without a mask must be identity")
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
		xi := slices.Clone(x)
		want := numGrad(func() float64 {
			return geluVec(xi)[i] * dy[i]
		}, &xi[i])
		if relErr(dx[i], want) > 1e-5 {
			t.Fatalf("GELU grad[%d]: got %v want %v", i, dx[i], want)
		}
	}
}

func TestSigmoidStable(t *testing.T) {
	if got := mat.Sigmoid(1000); got != 1 {
		t.Fatalf("Sigmoid(1000)=%v", got)
	}
	if got := mat.Sigmoid(-1000); got != 0 {
		t.Fatalf("Sigmoid(-1000)=%v", got)
	}
	if math.Abs(mat.Sigmoid(0)-0.5) > 1e-12 {
		t.Fatal("Sigmoid(0) != 0.5")
	}
}

func TestCRFEmptySequence(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	c := NewCRF(rng, "crf", 3)
	var a Arena
	empty := mat.NewMat(0, 3)
	if loss, dE := c.NLL(empty, nil, &a); loss != 0 || dE.Rows != 0 {
		t.Fatal("empty NLL must be zero")
	}
	if got := c.Decode(empty, &a); got != nil {
		t.Fatal("empty Decode must be nil")
	}
	if got := beamDecode(c, empty, 4); got != nil {
		t.Fatal("empty BeamDecode must be nil")
	}
}

// fromRows builds a matrix from row slices, which must all share a length.
func fromRows(rows [][]float64) *mat.Mat {
	m := mat.NewMat(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Row(i), r)
	}
	return m
}

// geluVec applies the tanh-approximation GELU used by transformer FFNs.
func geluVec(x mat.Vec) mat.Vec {
	y := mat.NewVec(len(x))
	for i, v := range x {
		y[i] = gelu(v)
	}
	return y
}

func gelu(x float64) float64 {
	const c = 0.7978845608028654 // sqrt(2/pi)
	return 0.5 * x * (1 + math.Tanh(c*(x+0.044715*x*x*x)))
}

// beamHyp is one partial hypothesis during beam decoding.
type beamHyp struct {
	score float64
	last  int
	path  []int
}

// beamDecode returns c's best label sequence found by beam search with the
// given beam width. With width >= L it matches Viterbi on the max-scoring
// path's score; smaller beams trade exactness for speed (§4.1 "Viterbi along
// with beam search").
func beamDecode(c *CRF, em *mat.Mat, width int) []int {
	n := em.Rows
	if n == 0 {
		return nil
	}
	if width < 1 {
		width = 1
	}
	beams := make([]beamHyp, 0, c.L)
	for j := 0; j < c.L; j++ {
		beams = append(beams, beamHyp{score: c.start(j) + em.At(0, j), last: j, path: []int{j}})
	}
	beams = topK(beams, width)
	for t := 1; t < n; t++ {
		cand := make([]beamHyp, 0, len(beams)*c.L)
		for _, h := range beams {
			for j := 0; j < c.L; j++ {
				path := make([]int, len(h.path)+1)
				copy(path, h.path)
				path[len(h.path)] = j
				cand = append(cand, beamHyp{
					score: h.score + c.trans(h.last, j) + em.At(t, j),
					last:  j,
					path:  path,
				})
			}
		}
		beams = topK(cand, width)
	}
	best, bestScore := beams[0], math.Inf(-1)
	for _, h := range beams {
		if s := h.score + c.End.W.At(0, h.last); s > bestScore {
			best, bestScore = h, s
		}
	}
	return best.path
}

func topK(hyps []beamHyp, k int) []beamHyp {
	sort.Slice(hyps, func(i, j int) bool { return hyps[i].score > hyps[j].score })
	if len(hyps) > k {
		hyps = hyps[:k]
	}
	return hyps
}
