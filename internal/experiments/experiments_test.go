package experiments

import (
	"bytes"
	"strings"
	"testing"

	"saccs/internal/tokenize"
)

func TestTable3FastShape(t *testing.T) {
	rows := Table3(Fast, nil)
	if len(rows) != 4 {
		t.Fatalf("rows: %d", len(rows))
	}
	names := []string{"S1", "S2", "S3", "S4"}
	for i, r := range rows {
		if r.Dataset != names[i] {
			t.Fatalf("row %d dataset %s", i, r.Dataset)
		}
		if r.Total != r.Train+r.Test {
			t.Fatalf("total mismatch in %s", r.Dataset)
		}
	}
}

func TestFigure1Walkthrough(t *testing.T) {
	var buf bytes.Buffer
	res := Figure1(&buf)
	// E1 and E5 indexed under good food; E3 not (Fig. 1's point).
	food := res.IndexedTags["good food"]
	ids := map[string]bool{}
	for _, e := range food {
		ids[e.EntityID] = true
	}
	if !ids["E1"] || !ids["E5"] {
		t.Fatalf("E1 and E5 must be under good food: %v", food)
	}
	if ids["E3"] {
		t.Fatal("E3's review only mentions the ambiance; it must not map to good food")
	}
	atm := res.IndexedTags["great atmosphere"]
	foundE3 := false
	for _, e := range atm {
		if e.EntityID == "E3" {
			foundE3 = true
		}
	}
	if !foundE3 {
		t.Fatalf("E3 must be under great atmosphere: %v", atm)
	}
	if len(res.HistoryTags) != 1 || res.HistoryTags[0] != "romantic ambiance" {
		t.Fatalf("history: %v", res.HistoryTags)
	}
	if !strings.Contains(buf.String(), "user tag history") {
		t.Fatal("walkthrough output missing")
	}
}

func TestFigure2TagsTheExample(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a tagger")
	}
	var buf bytes.Buffer
	res := Figure2(Fast, &buf)
	if len(res.Tokens) != len(res.Labels) {
		t.Fatal("shape mismatch")
	}
	// "food" must be tagged as an aspect in the Fig. 2 sentence.
	for i, tok := range res.Tokens {
		if tok == "food" && res.Labels[i] != tokenize.BAS {
			t.Fatalf("food tagged %v", res.Labels[i])
		}
	}
	if len(res.Pairs) == 0 {
		t.Fatal("no pairs extracted")
	}
}

func TestFigure5AttentionWellFormed(t *testing.T) {
	if testing.Short() {
		t.Skip("trains an encoder")
	}
	var buf bytes.Buffer
	res := Figure5(Fast, &buf)
	if res.Attention.Rows != len(res.Tokens) {
		t.Fatalf("attention rows %d for %d tokens", res.Attention.Rows, len(res.Tokens))
	}
	for i := 0; i < res.Attention.Rows; i++ {
		sum := res.Attention.Row(i).Sum()
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("attention row sums to %v", sum)
		}
	}
	if !strings.Contains(buf.String(), "Figure 5") {
		t.Fatal("missing heatmap output")
	}
}

func TestMakeQueriesShape(t *testing.T) {
	tags := []string{"a", "b", "c", "d", "e", "f", "g"}
	qs := MakeQueries(tags, 20, 1)
	want := map[Difficulty][2]int{Short: {1, 2}, Medium: {3, 4}, Long: {5, 6}}
	for d, lohi := range want {
		if len(qs[d]) != 20 {
			t.Fatalf("%v: %d queries", d, len(qs[d]))
		}
		for _, q := range qs[d] {
			if len(q.Tags) < lohi[0] || len(q.Tags) > lohi[1] {
				t.Fatalf("%v query has %d tags", d, len(q.Tags))
			}
			seen := map[string]bool{}
			for _, tag := range q.Tags {
				if seen[tag] {
					t.Fatalf("duplicate tag in query: %v", q.Tags)
				}
				seen[tag] = true
			}
		}
	}
	// Determinism.
	qs2 := MakeQueries(tags, 20, 1)
	if qs2[Short][0].Tags[0] != qs[Short][0].Tags[0] {
		t.Fatal("query sampling must be deterministic")
	}
}

// TestTable2ShapeFast runs the full §6.2 comparison at fast scale and checks
// the paper's qualitative claims. This is the heaviest test in the repo
// (~15s); skipped in -short mode.
func TestTable2ShapeFast(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 2 harness")
	}
	res := Table2(Fast, nil)
	ir, _ := res.Row("IR")
	sim2, _ := res.Row("SIM - 2 atts")
	s6, _ := res.Row("SACCS - 6 tags")
	s18, _ := res.Row("SACCS - 18 tags")

	for _, d := range []Difficulty{Short, Medium, Long} {
		if s18.Get(d) <= ir.Get(d) {
			t.Errorf("%v: SACCS-18 (%.3f) must beat IR (%.3f)", d, s18.Get(d), ir.Get(d))
		}
		if s18.Get(d) <= sim2.Get(d) {
			t.Errorf("%v: SACCS-18 (%.3f) must beat SIM-2 (%.3f)", d, s18.Get(d), sim2.Get(d))
		}
		if s18.Get(d) <= s6.Get(d) {
			t.Errorf("%v: more tags must help (6: %.3f, 18: %.3f)", d, s6.Get(d), s18.Get(d))
		}
	}
	// NDCG grows with difficulty for every system (§6.2's observation).
	for _, row := range res.Rows {
		if !(row.Short <= row.Medium+0.05 && row.Medium <= row.Long+0.05) {
			t.Errorf("%s: NDCG should broadly rise with difficulty: %+v", row.System, row)
		}
	}
}

// TestTable5ShapeFast checks the §6.4 qualitative claims at fast scale.
func TestTable5ShapeFast(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 5 harness")
	}
	res := Table5(Fast, nil)
	opine, ok := res.Row("OpineDB")
	if !ok {
		t.Fatal("missing OpineDB row")
	}
	disc, _ := res.Row("Discriminative")
	mv, _ := res.Row("Majority Vote")
	prob, _ := res.Row("Probabilistic Model")

	if disc.Accuracy <= opine.Accuracy {
		t.Errorf("discriminative (%.1f) must beat OpineDB pairing (%.1f)", disc.Accuracy, opine.Accuracy)
	}
	if mv.Accuracy <= opine.Accuracy-10 {
		t.Errorf("majority vote (%.1f) should be competitive with OpineDB (%.1f)", mv.Accuracy, opine.Accuracy)
	}
	// The probabilistic model has the highest precision among label models.
	if prob.Precision < mv.Precision-1e-9 {
		t.Errorf("probabilistic precision (%.1f) should top majority vote (%.1f)", prob.Precision, mv.Precision)
	}
	// Seven labeling-function rows present with the paper's names.
	for _, name := range append([]string{"lf_tree_op", "lf_tree_as"}, PaperHeadNames...) {
		if _, ok := res.Row(name); !ok {
			t.Errorf("missing LF row %s", name)
		}
	}
	if len(res.Heads) != 5 {
		t.Errorf("head mapping has %d entries", len(res.Heads))
	}
}

func TestTable4ResultHelpers(t *testing.T) {
	res := Table4Result{
		Datasets: []string{"S1", "S2", "S3", "S4"},
		Rows: []Table4Row{
			{Model: "OpineDB", F1: [4]float64{50, 50, 50, 50}},
			{Model: "Adversarial (eps=0.1)", F1: [4]float64{70, 60, 55, 52}},
			{Model: "Adversarial (eps=2.0)", F1: [4]float64{60, 65, 50, 51}},
		},
	}
	if _, ok := res.Row("OpineDB"); !ok {
		t.Fatal("Row lookup failed")
	}
	if _, ok := res.Row("nope"); ok {
		t.Fatal("unexpected row")
	}
	best := res.BestAdversarial()
	want := [4]float64{70, 65, 55, 52}
	if best != want {
		t.Fatalf("BestAdversarial: %v want %v", best, want)
	}
}

func TestEpsilonSweepMatchesPaper(t *testing.T) {
	want := []float64{0.1, 0.2, 0.5, 1.0, 2.0}
	if len(Epsilons) != len(want) {
		t.Fatalf("epsilon sweep: %v", Epsilons)
	}
	for i, e := range Epsilons {
		if e != want[i] {
			t.Fatalf("epsilon sweep: %v", Epsilons)
		}
	}
}

// Get returns the row's score for a difficulty.
func (r Table2Row) Get(d Difficulty) float64 {
	switch d {
	case Short:
		return r.Short
	case Medium:
		return r.Medium
	}
	return r.Long
}

// Row returns the named system's row.
func (r Table2Result) Row(system string) (Table2Row, bool) {
	for _, row := range r.Rows {
		if row.System == system {
			return row, true
		}
	}
	return Table2Row{}, false
}

// Row returns the row with the given model name.
func (r Table4Result) Row(model string) (Table4Row, bool) {
	for _, row := range r.Rows {
		if row.Model == model {
			return row, true
		}
	}
	return Table4Row{}, false
}

// BestAdversarial returns, per dataset, the best F1 over the ε sweep.
func (r Table4Result) BestAdversarial() [4]float64 {
	var best [4]float64
	for _, row := range r.Rows {
		if len(row.Model) < 11 || row.Model[:11] != "Adversarial" {
			continue
		}
		for i, f := range row.F1 {
			if f > best[i] {
				best[i] = f
			}
		}
	}
	return best
}

// Row returns the row with the given model name.
func (r Table5Result) Row(model string) (Table5Row, bool) {
	for _, row := range r.Rows {
		if row.Model == model {
			return row, true
		}
	}
	return Table5Row{}, false
}
