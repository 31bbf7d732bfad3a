package datasets

import (
	"testing"

	"saccs/internal/tokenize"
)

func TestTable3SizesAtPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale generation in -short mode")
	}
	want := []struct {
		name         string
		train, test  int
		totalInPaper int
	}{
		{"S1", 3041, 800, 3841},
		{"S2", 3045, 800, 3845},
		{"S3", 1315, 685, 2000},
		{"S4", 800, 112, 912},
	}
	ds := All(Paper)
	for i, w := range want {
		d := ds[i]
		if d.Name != w.name {
			t.Fatalf("dataset %d name %s", i, d.Name)
		}
		if len(d.Train) != w.train || len(d.Test) != w.test {
			t.Fatalf("%s split %d/%d, want %d/%d", d.Name, len(d.Train), len(d.Test), w.train, w.test)
		}
		if d.Total() != w.totalInPaper {
			t.Fatalf("%s total %d, want %d", d.Name, d.Total(), w.totalInPaper)
		}
	}
}

func TestFastScaleNonTrivial(t *testing.T) {
	for _, d := range All(Fast) {
		if len(d.Train) < 12 || len(d.Test) < 12 {
			t.Fatalf("%s too small at fast scale: %d/%d", d.Name, len(d.Train), len(d.Test))
		}
		if len(d.Train) > 400 {
			t.Fatalf("%s too large at fast scale: %d", d.Name, len(d.Train))
		}
	}
}

func TestDatasetExamplesWellFormed(t *testing.T) {
	for _, d := range All(Fast) {
		for _, ex := range append(append([]Example{}, d.Train...), d.Test...) {
			if len(ex.Tokens) != len(ex.Labels) {
				t.Fatalf("%s: token/label mismatch", d.Name)
			}
			if len(ex.Tokens) == 0 {
				t.Fatalf("%s: empty example", d.Name)
			}
		}
	}
}

func TestDatasetsDeterministic(t *testing.T) {
	a, b := S1(Fast), S1(Fast)
	for i := range a.Train {
		if len(a.Train[i].Tokens) != len(b.Train[i].Tokens) {
			t.Fatal("non-deterministic generation")
		}
		for j := range a.Train[i].Tokens {
			if a.Train[i].Tokens[j] != b.Train[i].Tokens[j] {
				t.Fatal("non-deterministic tokens")
			}
		}
	}
}

func TestPairingBenchmarkShape(t *testing.T) {
	train, test := PairingBenchmark(Fast)
	if len(train) == 0 {
		t.Fatal("no training sentences")
	}
	if len(test) != 60 {
		t.Fatalf("fast test size %d", len(test))
	}
	pos := 0
	for _, ex := range test {
		if ex.Label {
			pos++
		}
		if len(ex.Tokens) == 0 || ex.Phrase == "" {
			t.Fatal("malformed example")
		}
		if ex.Aspect.Kind != tokenize.AspectSpan || ex.Opinion.Kind != tokenize.OpinionSpan {
			t.Fatal("span kinds wrong")
		}
	}
	// "fairly equal amount of positive and negative examples" (§6.4).
	if pos < len(test)/4 || pos > 3*len(test)/4 {
		t.Fatalf("unbalanced test set: %d/%d positive", pos, len(test))
	}
}

func TestPairingBenchmarkPaperSize(t *testing.T) {
	if testing.Short() {
		t.Skip("paper scale in -short mode")
	}
	_, test := PairingBenchmark(Paper)
	if len(test) != 397 {
		t.Fatalf("paper test size %d, want 397 (§6.4)", len(test))
	}
}

func TestEnumeratePairsLabelsGold(t *testing.T) {
	train, _ := PairingBenchmark(Fast)
	checked := 0
	for _, sent := range train {
		exs := EnumeratePairs(sent)
		goldCount := 0
		for _, ex := range exs {
			if ex.Label {
				goldCount++
			}
		}
		if len(sent.Pairs) > 0 && goldCount == 0 {
			t.Fatalf("gold pairs not recovered: %v vs %d examples", sent.Pairs, len(exs))
		}
		checked++
		if checked > 50 {
			break
		}
	}
}
