package snorkel

import (
	"math/rand"
	"testing"
)

func TestApplyAll(t *testing.T) {
	lfs := []LF[int]{
		{Name: "even", Apply: func(x int) Vote {
			if x%2 == 0 {
				return Positive
			}
			return Negative
		}},
		{Name: "big", Apply: func(x int) Vote {
			if x > 10 {
				return Positive
			}
			return Abstain
		}},
	}
	votes := ApplyAll(lfs, []int{4, 7, 12})
	want := [][]Vote{{Positive, Abstain}, {Negative, Abstain}, {Positive, Positive}}
	for i := range want {
		for j := range want[i] {
			if votes[i][j] != want[i][j] {
				t.Fatalf("votes[%d][%d] = %v", i, j, votes[i][j])
			}
		}
	}
}

func TestMajorityPosterior(t *testing.T) {
	m := Majority{}
	if p := m.Posterior([]Vote{Positive, Positive, Negative}); p <= 0.5 {
		t.Fatalf("2/3 positive must exceed 0.5: %v", p)
	}
	if p := m.Posterior([]Vote{Negative, Negative, Positive}); p >= 0.5 {
		t.Fatalf("1/3 positive must be below 0.5: %v", p)
	}
	if p := m.Posterior([]Vote{Positive, Negative}); p >= 0.5 {
		t.Fatalf("tie must break negative: %v", p)
	}
	if p := m.Posterior([]Vote{Abstain, Abstain}); p >= 0.5 {
		t.Fatalf("all-abstain must lean negative: %v", p)
	}
	if !Predict(m, []Vote{Positive, Positive, Negative}) {
		t.Fatal("Predict must threshold at 0.5")
	}
	// Abstains are excluded from the denominator.
	if p := m.Posterior([]Vote{Positive, Abstain, Abstain}); p != 1 {
		t.Fatalf("single positive with abstains: %v", p)
	}
}

// synthesizeVotes builds a vote matrix from labeled data with known per-LF
// accuracies, for testing the generative model's recovery.
func synthesizeVotes(rng *rand.Rand, n int, accs []float64, prior float64) (votes [][]Vote, gold []bool) {
	votes = make([][]Vote, n)
	gold = make([]bool, n)
	for i := 0; i < n; i++ {
		y := rng.Float64() < prior
		gold[i] = y
		row := make([]Vote, len(accs))
		for j, a := range accs {
			correct := rng.Float64() < a
			val := y == correct // y XOR wrong
			if val {
				row[j] = Positive
			} else {
				row[j] = Negative
			}
		}
		votes[i] = row
	}
	return votes, gold
}

func TestGenerativeRecoversAccuracies(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	trueAccs := []float64{0.9, 0.85, 0.7, 0.6}
	votes, _ := synthesizeVotes(rng, 2000, trueAccs, 0.4)
	g, err := FitGenerative(votes, 30)
	if err != nil {
		t.Fatal(err)
	}
	// EM can converge to the flipped labeling; our asymmetric init plus
	// majority-correct LFs should keep it aligned.
	for j, want := range trueAccs {
		if d := g.Acc(j) - want; d > 0.08 || d < -0.08 {
			t.Fatalf("acc[%d] = %v, want ≈ %v (sens %v spec %v)", j, g.Acc(j), want, g.Sens, g.Spec)
		}
	}
	if d := g.Prior - 0.4; d > 0.08 || d < -0.08 {
		t.Fatalf("prior = %v, want ≈ 0.4", g.Prior)
	}
}

func TestGenerativeBeatsWorstLF(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	trueAccs := []float64{0.9, 0.8, 0.65, 0.55}
	votes, gold := synthesizeVotes(rng, 1500, trueAccs, 0.5)
	g, err := FitGenerative(votes, 30)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	worstLFCorrect := 0
	for i, row := range votes {
		if Predict(g, row) == gold[i] {
			correct++
		}
		if (row[3] == Positive) == gold[i] {
			worstLFCorrect++
		}
	}
	if correct <= worstLFCorrect {
		t.Fatalf("generative model (%d) must beat the weakest LF (%d)", correct, worstLFCorrect)
	}
	if float64(correct)/float64(len(votes)) < 0.85 {
		t.Fatalf("generative accuracy too low: %d/%d", correct, len(votes))
	}
}

func TestGenerativeHandlesAbstains(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	votes, _ := synthesizeVotes(rng, 500, []float64{0.9, 0.8}, 0.5)
	// Make the second LF abstain half the time.
	for _, row := range votes {
		if rng.Intn(2) == 0 {
			row[1] = Abstain
		}
	}
	g, err := FitGenerative(votes, 20)
	if err != nil {
		t.Fatal(err)
	}
	p := g.Posterior([]Vote{Abstain, Abstain})
	if p < 0.3 || p > 0.7 {
		t.Fatalf("all-abstain posterior should be near the prior: %v", p)
	}
}

func TestFitGenerativeErrors(t *testing.T) {
	if _, err := FitGenerative(nil, 5); err == nil {
		t.Fatal("empty matrix must error")
	}
	if _, err := FitGenerative([][]Vote{{Positive}, {Positive, Negative}}, 5); err == nil {
		t.Fatal("ragged matrix must error")
	}
}

func TestGenerativePosteriorMonotonicInVotes(t *testing.T) {
	g := &Generative{Sens: []float64{0.8, 0.8, 0.8}, Spec: []float64{0.8, 0.8, 0.8}, Prior: 0.5}
	p0 := g.Posterior([]Vote{Negative, Negative, Negative})
	p1 := g.Posterior([]Vote{Positive, Negative, Negative})
	p2 := g.Posterior([]Vote{Positive, Positive, Negative})
	p3 := g.Posterior([]Vote{Positive, Positive, Positive})
	if !(p0 < p1 && p1 < p2 && p2 < p3) {
		t.Fatalf("posterior must increase with positive votes: %v %v %v %v", p0, p1, p2, p3)
	}
}

// Acc returns LF j's balanced accuracy (mean of sensitivity and
// specificity), a convenient scalar summary.
func (g *Generative) Acc(j int) float64 { return (g.Sens[j] + g.Spec[j]) / 2 }
