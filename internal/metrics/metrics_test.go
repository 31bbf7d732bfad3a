package metrics

import (
	"math"
	"math/rand"
	"testing"

	"saccs/internal/tokenize"
)

func TestDCGFirstPositionWeighsMost(t *testing.T) {
	gains := map[string]float64{"a": 1, "b": 0.5}
	best := DCG(gains, []string{"a", "b"})
	worse := DCG(gains, []string{"b", "a"})
	if best <= worse {
		t.Fatalf("DCG must reward relevant-first: %v vs %v", best, worse)
	}
}

func TestNDCGIdealOrderIsOne(t *testing.T) {
	gains := map[string]float64{"a": 1, "b": 0.7, "c": 0.2}
	if got := NDCG(gains, []string{"a", "b", "c"}, 3); math.Abs(got-1) > 1e-12 {
		t.Fatalf("ideal ordering NDCG = %v", got)
	}
}

func TestNDCGRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	entities := []string{"a", "b", "c", "d", "e"}
	for trial := 0; trial < 100; trial++ {
		gains := map[string]float64{}
		for _, e := range entities {
			gains[e] = rng.Float64()
		}
		ranked := append([]string(nil), entities...)
		rng.Shuffle(len(ranked), func(i, j int) { ranked[i], ranked[j] = ranked[j], ranked[i] })
		k := 1 + rng.Intn(5)
		got := NDCG(gains, ranked, k)
		if got < 0 || got > 1+1e-12 {
			t.Fatalf("NDCG out of range: %v", got)
		}
	}
}

func TestNDCGTruncation(t *testing.T) {
	gains := map[string]float64{"a": 1, "b": 1, "c": 0}
	// Ranked list puts the irrelevant entity first; with k=1 the score must
	// be low, with k=3 higher.
	atOne := NDCG(gains, []string{"c", "a", "b"}, 1)
	atThree := NDCG(gains, []string{"c", "a", "b"}, 3)
	if atOne >= atThree {
		t.Fatalf("truncation wrong: k=1 %v vs k=3 %v", atOne, atThree)
	}
	if atOne != 0 {
		t.Fatalf("k=1 with irrelevant top must be 0: %v", atOne)
	}
}

func TestNDCGEmptyGains(t *testing.T) {
	if got := NDCG(map[string]float64{}, []string{"a"}, 5); got != 1 {
		t.Fatalf("no relevant entities: %v", got)
	}
}

func TestNDCGMissingEntityGainsZero(t *testing.T) {
	gains := map[string]float64{"a": 1}
	with := NDCG(gains, []string{"a", "zz"}, 2)
	if math.Abs(with-1) > 1e-12 {
		t.Fatalf("unknown entities must not hurt when ranked after: %v", with)
	}
}

func labelSeq(t *testing.T, names ...string) []tokenize.Label {
	t.Helper()
	out := make([]tokenize.Label, len(names))
	for i, n := range names {
		out[i] = tokenize.NumLabels
		for l := tokenize.O; l < tokenize.NumLabels; l++ {
			if l.String() == n {
				out[i] = l
			}
		}
		if out[i] == tokenize.NumLabels {
			t.Fatalf("unknown label %q", n)
		}
	}
	return out
}

func TestChunkPRFPerfect(t *testing.T) {
	gold := [][]tokenize.Label{labelSeq(t, "O", "B-AS", "I-AS", "O", "B-OP")}
	got := ChunkPRF(gold, gold)
	if got.Precision != 1 || got.Recall != 1 || got.F1 != 1 {
		t.Fatalf("perfect prediction: %+v", got)
	}
}

func TestChunkPRFBoundaryErrorCountsAsWrong(t *testing.T) {
	gold := [][]tokenize.Label{labelSeq(t, "O", "B-AS", "I-AS", "O")}
	pred := [][]tokenize.Label{labelSeq(t, "O", "B-AS", "O", "O")} // truncated chunk
	got := ChunkPRF(gold, pred)
	if got.Precision != 0 || got.Recall != 0 {
		t.Fatalf("exact-match must reject boundary errors: %+v", got)
	}
}

func TestChunkPRFKindMatters(t *testing.T) {
	gold := [][]tokenize.Label{labelSeq(t, "B-AS")}
	pred := [][]tokenize.Label{labelSeq(t, "B-OP")}
	got := ChunkPRF(gold, pred)
	if got.F1 != 0 {
		t.Fatalf("aspect predicted as opinion must not match: %+v", got)
	}
}

func TestChunkPRFPartial(t *testing.T) {
	gold := [][]tokenize.Label{labelSeq(t, "B-AS", "O", "B-OP", "O")}
	pred := [][]tokenize.Label{labelSeq(t, "B-AS", "O", "O", "B-OP")}
	got := ChunkPRF(gold, pred)
	// 1 TP (aspect), 1 FP (shifted opinion), 1 FN (missed opinion).
	if math.Abs(got.Precision-0.5) > 1e-12 || math.Abs(got.Recall-0.5) > 1e-12 {
		t.Fatalf("partial: %+v", got)
	}
}

func TestChunkPRFDuplicatePredictionsNotDoubleCounted(t *testing.T) {
	gold := [][]tokenize.Label{labelSeq(t, "B-AS", "B-AS")} // two gold chunks at 0 and 1
	pred := [][]tokenize.Label{labelSeq(t, "B-AS", "O")}
	got := ChunkPRF(gold, pred)
	if got.Precision != 1 {
		t.Fatalf("precision: %+v", got)
	}
	if math.Abs(got.Recall-0.5) > 1e-12 {
		t.Fatalf("recall: %+v", got)
	}
}

func TestBinaryMetrics(t *testing.T) {
	var b Binary
	// 3 TP, 1 FP, 4 TN, 2 FN
	for i := 0; i < 3; i++ {
		b.Observe(true, true)
	}
	b.Observe(true, false)
	for i := 0; i < 4; i++ {
		b.Observe(false, false)
	}
	for i := 0; i < 2; i++ {
		b.Observe(false, true)
	}
	if got := b.Accuracy(); math.Abs(got-0.7) > 1e-12 {
		t.Fatalf("accuracy %v", got)
	}
	if got := b.Precision(); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("precision %v", got)
	}
	if got := b.Recall(); math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("recall %v", got)
	}
	wantF1 := 2 * 0.75 * 0.6 / (0.75 + 0.6)
	if got := b.F1(); math.Abs(got-wantF1) > 1e-12 {
		t.Fatalf("f1 %v", got)
	}
}

func TestBinaryEmptyGuards(t *testing.T) {
	var b Binary
	if b.Accuracy() != 0 || b.Precision() != 0 || b.Recall() != 0 || b.F1() != 0 {
		t.Fatal("empty metrics must be zero")
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("Mean: %v", got)
	}
}
