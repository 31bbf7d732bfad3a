package experiments

import (
	"fmt"
	"testing"
)

// TestTable4FastPinned pins fast-scale Table 4 bit for bit: every row's F1 on
// S1–S4 at %.17g. Table 4 is the one result that trains the OpineDB
// baseline (softmax cross-entropy over the frozen encoder) and the
// adversarial tagger (the CRF's forward–backward and FGSM) on every
// dataset, so a change to the sequence types under either must leave these
// numbers where they are. A change that means to move them must say why and
// re-record them.
func TestTable4FastPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 4 harness")
	}
	wantRows := []string{
		`"OpineDB": {41.45873320537428, 36.446469248291571, 34.848484848484844, 50.632911392405063}`,
		`"OpineDB + DK": {43.892339544513455, 38.095238095238102, 34.532374100719423, 47.368421052631575}`,
		`"Adversarial (eps=0.1)": {75.261324041811847, 76.459510357815446, 60.456942003514946, 59.523809523809526}`,
		`"Adversarial (eps=0.2)": {74.099485420240143, 70.411985018726597, 55.55555555555555, 52.5}`,
		`"Adversarial (eps=0.5)": {68.67671691792296, 58.064516129032263, 46.18320610687023, 43.835616438356155}`,
		`"Adversarial (eps=1.0)": {67.008547008547012, 62.003780718336486, 42.544731610337969, 43.835616438356155}`,
		`"Adversarial (eps=2.0)": {75.503355704697995, 67.047619047619051, 55.208333333333336, 47.368421052631575}`,
	}
	res := Table4(Fast, nil)
	if got := fmt.Sprint(res.Datasets); got != "[S1 S2 S3 S4]" {
		t.Errorf("datasets %s, want [S1 S2 S3 S4]", got)
	}
	if len(res.Rows) != len(wantRows) {
		t.Fatalf("%d rows, want %d", len(res.Rows), len(wantRows))
	}
	for i, row := range res.Rows {
		got := fmt.Sprintf("%q: {%.17g, %.17g, %.17g, %.17g}", row.Model, row.F1[0], row.F1[1], row.F1[2], row.F1[3])
		if got != wantRows[i] {
			t.Errorf("row %d:\n got %s\nwant %s", i, got, wantRows[i])
		}
	}
}

// TestTable5FastPinned pins fast-scale Table 5 bit for bit: every row's
// accuracy, precision, recall and F1 at %.17g, and the head mapping the
// qualitative analysis chose with each head's dev accuracy. Table 5 is the
// one result that reads attention back from the encoder's tape (the
// lf_bert rows and the head selection) and trains the discriminative
// pairing classifier on the encoder's sentence features.
func TestTable5FastPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 5 harness")
	}
	wantRows := []string{
		`"OpineDB": {78.333333333333329, 83.333333333333343, 75.757575757575751, 79.365079365079382}`,
		`"lf_bert_7:10": {68.333333333333329, 79.166666666666657, 57.575757575757578, 66.666666666666671}`,
		`"lf_bert_3:10": {51.666666666666671, 59.090909090909093, 39.393939393939391, 47.272727272727273}`,
		`"lf_bert_3:8": {50, 71.428571428571431, 15.151515151515152, 25}`,
		`"lf_bert_4:6": {46.666666666666664, 66.666666666666657, 6.0606060606060606, 11.111111111111111}`,
		`"lf_bert_8:9": {50, 100, 9.0909090909090917, 16.666666666666668}`,
		`"lf_tree_op": {91.666666666666657, 96.666666666666671, 87.878787878787875, 92.063492063492063}`,
		`"lf_tree_as": {76.666666666666671, 95.238095238095227, 60.606060606060609, 74.074074074074076}`,
		`"Majority Vote": {85, 96.15384615384616, 75.757575757575751, 84.745762711864415}`,
		`"Probabilistic Model": {93.333333333333329, 96.774193548387103, 90.909090909090907, 93.749999999999986}`,
		`"Discriminative": {88.333333333333329, 88.235294117647058, 90.909090909090907, 89.552238805970148}`,
	}
	wantHeads := []string{
		"(1, 5): 0.71641791044776115",
		"(1, 1): 0.70895522388059706",
		"(0, 0): 0.67164179104477617",
		"(0, 1): 0.64179104477611937",
		"(0, 4): 0.64179104477611937",
	}
	res := Table5(Fast, nil)
	if len(res.Rows) != len(wantRows) {
		t.Fatalf("%d rows, want %d", len(res.Rows), len(wantRows))
	}
	for i, row := range res.Rows {
		got := fmt.Sprintf("%q: {%.17g, %.17g, %.17g, %.17g}", row.Model, row.Accuracy, row.Precision, row.Recall, row.F1C)
		if got != wantRows[i] {
			t.Errorf("row %d:\n got %s\nwant %s", i, got, wantRows[i])
		}
	}
	if len(res.Heads) != len(wantHeads) {
		t.Fatalf("%d heads, want %d", len(res.Heads), len(wantHeads))
	}
	for i, h := range res.Heads {
		if got := fmt.Sprintf("(%d, %d): %.17g", h.Layer, h.Head, h.Accuracy); got != wantHeads[i] {
			t.Errorf("head %d (%s): got %s, want %s", i, PaperHeadNames[i], got, wantHeads[i])
		}
	}
}
