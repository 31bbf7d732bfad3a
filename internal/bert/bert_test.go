package bert

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"saccs/internal/corpus"
	"saccs/internal/mat"
	"saccs/internal/nn"
	"saccs/internal/tokenize"
)

func tinyConfig() Config {
	return Config{Layers: 1, Heads: 2, Dim: 8, FFDim: 12, MaxLen: 16}
}

func tinyVocab() *tokenize.Vocab {
	v := tokenize.NewVocab()
	v.AddAll([]string{"the", "food", "is", "delicious", "staff", "friendly", "and", "."})
	return v
}

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

// TestModelGradCheck verifies the full transformer backward pass — attention,
// layer norm, GELU FFN, residuals, embeddings — against finite differences.
func TestModelGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	v := tinyVocab()
	m := New(rng, tinyConfig(), v)
	ids := v.Encode([]string{"the", "food", "is", "delicious"})
	gold := v.ID("staff")

	loss := func() float64 {
		hs := m.Encode(ids)
		var s float64
		for i := 0; i < hs.Rows; i++ {
			logits := m.MLMHead.Forward(hs.Row(i))
			s += nn.SoftmaxCE(logits, logits, gold)
		}
		return s
	}

	params := m.Params()
	nn.ZeroGrads(params)
	hs := m.Encode(ids)
	dhs := mat.NewMat(hs.Rows, hs.Cols)
	for i := 0; i < hs.Rows; i++ {
		h := hs.Row(i)
		logits := m.MLMHead.Forward(h)
		nn.SoftmaxCE(logits, logits, gold)
		copy(dhs.Row(i), m.MLMHead.Backward(h, logits))
	}
	m.Backward(dhs)

	analytic := map[*nn.Param][]float64{}
	for _, p := range params {
		analytic[p] = append([]float64(nil), p.G.Data...)
	}
	checked := 0
	for _, p := range params {
		// Spot-check a handful of coordinates per tensor to keep runtime sane.
		step := len(p.W.Data)/3 + 1
		for i := 0; i < len(p.W.Data); i += step {
			want := numGrad(loss, &p.W.Data[i])
			if relErr(analytic[p][i], want) > 1e-4 {
				t.Fatalf("%s grad[%d]: got %v want %v", p.Name, i, analytic[p][i], want)
			}
			checked++
		}
	}
	if checked < 20 {
		t.Fatalf("too few coordinates checked: %d", checked)
	}
}

func TestAttentionRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	v := tinyVocab()
	m := New(rng, tinyConfig(), v)
	toks := []string{"the", "staff", "is", "friendly", "."}
	var a nn.Arena
	e := m.InferAttentionArena(toks, &a)
	for layer := 0; layer < m.Cfg.Layers; layer++ {
		for head := 0; head < m.Cfg.Heads; head++ {
			attn := e.Attention(layer, head)
			if attn.Rows != len(toks) {
				t.Fatalf("attention shape: %d rows", attn.Rows)
			}
			for i := 0; i < attn.Rows; i++ {
				row := attn.Row(i)
				if len(row) != len(toks) {
					t.Fatalf("row %d has %d cols", i, len(row))
				}
				if math.Abs(row.Sum()-1) > 1e-9 {
					t.Fatalf("row %d sums to %v", i, row.Sum())
				}
			}
		}
	}
	if e.Attention(99, 0) != nil || e.Attention(0, 99) != nil {
		t.Fatal("out-of-range attention access must return nil")
	}
}

func TestEncodeTruncatesToMaxLen(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := tinyConfig()
	cfg.MaxLen = 4
	m := New(rng, cfg, tinyVocab())
	long := make([]int, 10)
	hs := m.Encode(long)
	if hs.Rows != 4 {
		t.Fatalf("expected truncation to 4, got %d", hs.Rows)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	v := tinyVocab()
	a := New(rand.New(rand.NewSource(4)), tinyConfig(), v)
	b := New(rand.New(rand.NewSource(4)), tinyConfig(), v)
	ha := a.EncodeTokens([]string{"the", "food"})
	hb := b.EncodeTokens([]string{"the", "food"})
	for i := range ha.Data {
		if ha.Data[i] != hb.Data[i] {
			t.Fatal("same seed must produce identical encodings")
		}
	}
}

func TestContextualEmbeddings(t *testing.T) {
	// The same token in different contexts must get different vectors —
	// that's the point of using BERT over static embeddings.
	rng := rand.New(rand.NewSource(5))
	v := tinyVocab()
	m := New(rng, tinyConfig(), v)
	h1 := m.EncodeTokens([]string{"the", "food", "is", "delicious"})
	foodIn1 := slices.Clone(h1.Row(1))
	h2 := m.EncodeTokens([]string{"friendly", "food", "and", "staff"})
	foodIn2 := h2.Row(1)
	diff := slices.Clone(foodIn1)
	diff.AddScaled(-1, foodIn2)
	if diff.Norm() < 1e-9 {
		t.Fatal("contextual embeddings are identical across contexts")
	}
}

// TestBackwardConsumesOneEncode pins Model.Backward's contract: one
// Backward per Encode. With no Encode, after a second Backward, or after a
// TrainMLM (which drops the tape), it fails with a message naming the rule.
func TestBackwardConsumesOneEncode(t *testing.T) {
	m := New(rand.New(rand.NewSource(9)), tinyConfig(), tinyVocab())
	words := []string{"the", "food", "is", "delicious"}
	dhs := func() *mat.Mat {
		out := mat.NewMat(len(words), m.Cfg.Dim)
		for i := 0; i < out.Rows; i++ {
			out.Set(i, 0, 1)
		}
		return out
	}
	wantPanic := func(when string) {
		t.Helper()
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "Backward without an unconsumed Encode") {
				t.Fatalf("Backward %s: recovered %q, want the one-Backward-per-Encode panic", when, msg)
			}
		}()
		m.Backward(dhs())
	}
	wantPanic("before any Encode")
	m.EncodeTokens(words)
	if dx := m.Backward(dhs()); dx.Rows != len(words) {
		t.Fatalf("Backward returned %d rows, want %d", dx.Rows, len(words))
	}
	wantPanic("a second time")
	m.EncodeTokens(words)
	m.TrainMLM(rand.New(rand.NewSource(10)), [][]string{words}, MLMConfig{Epochs: 1, LR: 1e-3, MaskProb: 0.15, ClipNorm: 5})
	wantPanic("after TrainMLM")
}

// mlmLoss evaluates the mean per-token masked loss on a corpus without
// updating weights (deterministic masking by the provided rng). It runs the
// reentrant forward over the masked tokens, whose hidden rows are the taped
// Encode's bit for bit.
func mlmLoss(m *Model, rng *rand.Rand, corpus [][]string, maskProb float64) float64 {
	var a nn.Arena
	var total float64
	var count int
	for _, sent := range corpus {
		masked := append([]string(nil), sent[:min(len(sent), m.Cfg.MaxLen)]...)
		var targets []int
		for i := range masked {
			if rng.Float64() < maskProb {
				targets = append(targets, i)
				masked[i] = tokenize.MaskToken
			}
		}
		if len(targets) == 0 {
			continue
		}
		a.Reset()
		hs := m.InferTokensArena(masked, &a)
		for _, pos := range targets {
			logits := m.MLMHead.Forward(hs.Row(pos))
			total += nn.SoftmaxCE(logits, logits, m.Vocab.ID(sent[pos]))
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return total / float64(count)
}

func TestTrainMLMReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	gen := rand.New(rand.NewSource(7))
	sents := corpus.GeneralCorpus(gen, 60)
	v := tokenize.NewVocab()
	for _, s := range sents {
		v.AddAll(s)
	}
	m := New(rng, Config{Layers: 1, Heads: 2, Dim: 16, FFDim: 32, MaxLen: 24}, v)

	evalRng := rand.New(rand.NewSource(8))
	before := mlmLoss(m, evalRng, sents, 0.15)
	cfg := DefaultMLMConfig()
	cfg.Epochs = 4
	m.TrainMLM(rng, sents, cfg)
	evalRng = rand.New(rand.NewSource(8))
	after := mlmLoss(m, evalRng, sents, 0.15)
	if after >= before {
		t.Fatalf("MLM training did not reduce loss: before=%v after=%v", before, after)
	}
	if after > before*0.8 {
		t.Fatalf("MLM loss barely moved: before=%v after=%v", before, after)
	}
}

func TestSentenceVec(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := New(rng, tinyConfig(), tinyVocab())
	sv := m.SentenceVec([]string{"the", "food", "is", "delicious"})
	if len(sv) != m.Cfg.Dim {
		t.Fatalf("sentence vector dim %d", len(sv))
	}
	if sv.Norm() == 0 {
		t.Fatal("sentence vector is zero")
	}
	empty := m.SentenceVec(nil)
	if empty.Norm() != 0 {
		t.Fatal("empty sentence must embed to zero")
	}
}

func TestDomainPostTrainingShiftsEmbeddings(t *testing.T) {
	// Post-training on reviews (§4.2) must change the encoder's view of
	// domain jargon more than general training alone.
	rng := rand.New(rand.NewSource(10))
	genRng := rand.New(rand.NewSource(11))
	general := corpus.GeneralCorpus(genRng, 40)
	v := tokenize.NewVocab()
	for _, s := range general {
		v.AddAll(s)
	}
	v.AddAll([]string{"the", "food", "is", "a", "killer", "la", "carte", "delicious", "."})
	m := New(rng, Config{Layers: 1, Heads: 2, Dim: 16, FFDim: 32, MaxLen: 24}, v)
	cfg := DefaultMLMConfig()
	cfg.Epochs = 2
	m.TrainMLM(rng, general, cfg)

	jargon := []string{"the", "food", "is", "a", "killer", "."}
	snapshot := m.EncodeTokens(jargon).Clone()
	reviews := [][]string{
		{"the", "food", "is", "a", "killer", "."},
		{"la", "carte", "is", "delicious", "."},
		{"the", "food", "is", "delicious", "."},
	}
	m.TrainMLM(rng, reviews, MLMConfig{MaskProb: 0.3, LR: 1e-3, Epochs: 10, ClipNorm: 5})
	after := m.EncodeTokens(jargon)
	var moved float64
	for i := 0; i < after.Rows; i++ {
		d := slices.Clone(after.Row(i))
		d.AddScaled(-1, snapshot.Row(i))
		moved += d.Norm()
	}
	if moved < 1e-6 {
		t.Fatal("domain post-training did not shift jargon embeddings")
	}
}
