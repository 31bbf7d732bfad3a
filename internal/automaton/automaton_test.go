package automaton

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func sample() *Trie {
	t := New()
	t.AddAll([]string{
		"delicious food", "good food", "nice staff", "quick service",
		"romantic ambiance", "creative cooking",
	})
	return t
}

func TestAddContainsLen(t *testing.T) {
	tr := sample()
	if tr.Len() != 6 {
		t.Fatalf("Len: %d", tr.Len())
	}
	tr.Add("good food") // idempotent
	if tr.Len() != 6 {
		t.Fatal("Add must be idempotent")
	}
	if !tr.Contains("good food") || tr.Contains("good foo") || tr.Contains("good foods") {
		t.Fatal("Contains wrong")
	}
	if tr.Contains("") {
		t.Fatal("empty string not stored")
	}
	tr.Add("")
	if !tr.Contains("") || tr.Len() != 7 {
		t.Fatal("empty string storable")
	}
}

func TestWithPrefix(t *testing.T) {
	tr := sample()
	got := tr.WithPrefix("g")
	if len(got) != 1 || got[0] != "good food" {
		t.Fatalf("prefix g: %v", got)
	}
	all := tr.WithPrefix("")
	if len(all) != 6 {
		t.Fatalf("empty prefix must return everything: %v", all)
	}
	for i := 1; i < len(all); i++ {
		if all[i] < all[i-1] {
			t.Fatal("results must be sorted")
		}
	}
	if tr.WithPrefix("zzz") != nil {
		t.Fatal("missing prefix must be nil")
	}
}

// editDistance is a reference Levenshtein for cross-checking.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur := make([]int, len(b)+1)
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = minOf(cur[j-1]+1, prev[j]+1, prev[j-1]+cost)
		}
		prev = cur
	}
	return prev[len(b)]
}

func TestWithinTypo(t *testing.T) {
	tr := sample()
	// The §7 motivating case: a misspelled query tag.
	got := tr.Within("delicous food", 2)
	if len(got) == 0 || got[0].Tag != "delicious food" {
		t.Fatalf("typo lookup: %v", got)
	}
	if got[0].Distance != 1 {
		t.Fatalf("distance: %d", got[0].Distance)
	}
	if hits := tr.Within("delicous food", 0); len(hits) != 0 {
		t.Fatalf("zero budget must not fuzzy match: %v", hits)
	}
	if tr.Within("x", -1) != nil {
		t.Fatal("negative budget")
	}
}

func TestWithinMatchesReferenceLevenshtein(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	words := []string{"food", "fool", "flood", "good", "mood", "wood", "goods", "foob"}
	tr := New()
	tr.AddAll(words)
	for trial := 0; trial < 200; trial++ {
		// Random query: mutate a random word.
		q := []byte(words[rng.Intn(len(words))])
		for k := 0; k < rng.Intn(3); k++ {
			if len(q) == 0 {
				break
			}
			q[rng.Intn(len(q))] = byte('a' + rng.Intn(26))
		}
		query := string(q)
		budget := rng.Intn(3)
		got := tr.Within(query, budget)
		want := map[string]int{}
		for _, w := range words {
			if d := editDistance(query, w); d <= budget {
				want[w] = d
			}
		}
		if len(got) != len(want) {
			t.Fatalf("Within(%q,%d) = %v, want %v", query, budget, got, want)
		}
		for _, m := range got {
			if want[m.Tag] != m.Distance {
				t.Fatalf("distance mismatch for %q: got %d want %d", m.Tag, m.Distance, want[m.Tag])
			}
		}
	}
}

func TestClosest(t *testing.T) {
	tr := sample()
	if got, ok := tr.Closest("nice staff", 2); !ok || got != "nice staff" {
		t.Fatalf("exact closest: %v %v", got, ok)
	}
	if got, ok := tr.Closest("nise staff", 2); !ok || got != "nice staff" {
		t.Fatalf("fuzzy closest: %v %v", got, ok)
	}
	if _, ok := tr.Closest("completely unrelated", 1); ok {
		t.Fatal("no match expected")
	}
}

func TestQuickAddedAlwaysFound(t *testing.T) {
	f := func(tags []string) bool {
		tr := New()
		for _, tag := range tags {
			if len(tag) > 64 {
				tag = tag[:64]
			}
			tr.Add(tag)
			if !tr.Contains(tag) {
				return false
			}
			if !strings.HasPrefix(tag, "") { // trivially true; keeps strings import honest
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Len returns the number of stored tags.
func (t *Trie) Len() int { return t.size }
