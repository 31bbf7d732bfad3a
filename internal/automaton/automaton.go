// Package automaton implements the §7 future-work idea of "search automata
// as a substitute for inverted indexes": a byte-level trie over subjective
// tag strings supporting exact, prefix, and bounded-edit-distance lookup.
// SACCS uses it to route misspelled or partially typed query tags
// ("delicous food", "romantic amb…") onto index keys before similarity
// matching, which is far cheaper than scoring every index tag.
package automaton

import "sort"

// node is one trie node.
type node struct {
	children map[byte]*node
	// terminal marks the end of a stored tag.
	terminal bool
}

// Trie is a byte-level tag automaton.
type Trie struct {
	root *node
	size int
}

// New returns an empty automaton.
func New() *Trie { return &Trie{root: &node{}} }

// Add inserts a tag (idempotent).
func (t *Trie) Add(tag string) {
	cur := t.root
	for i := 0; i < len(tag); i++ {
		b := tag[i]
		if cur.children == nil {
			cur.children = map[byte]*node{}
		}
		next, ok := cur.children[b]
		if !ok {
			next = &node{}
			cur.children[b] = next
		}
		cur = next
	}
	if !cur.terminal {
		cur.terminal = true
		t.size++
	}
}

// AddAll inserts every tag.
func (t *Trie) AddAll(tags []string) {
	for _, tag := range tags {
		t.Add(tag)
	}
}

// Contains reports whether the exact tag is stored.
func (t *Trie) Contains(tag string) bool {
	cur := t.root
	for i := 0; i < len(tag); i++ {
		next, ok := cur.children[tag[i]]
		if !ok {
			return false
		}
		cur = next
	}
	return cur.terminal
}

// WithPrefix returns all stored tags beginning with prefix, sorted.
func (t *Trie) WithPrefix(prefix string) []string {
	cur := t.root
	for i := 0; i < len(prefix); i++ {
		next, ok := cur.children[prefix[i]]
		if !ok {
			return nil
		}
		cur = next
	}
	var out []string
	collect(cur, prefix, &out)
	sort.Strings(out)
	return out
}

func collect(n *node, path string, out *[]string) {
	if n.terminal {
		*out = append(*out, path)
	}
	for b, child := range n.children {
		collect(child, path+string(b), out)
	}
}

// Match is one fuzzy hit.
type Match struct {
	Tag      string
	Distance int
}

// Within returns all stored tags within the given Levenshtein edit distance
// of query, sorted by distance then tag. It walks the trie with the classic
// row-per-node dynamic program, pruning branches whose minimum row value
// exceeds the budget.
func (t *Trie) Within(query string, maxDist int) []Match {
	if maxDist < 0 {
		return nil
	}
	row := make([]int, len(query)+1)
	for i := range row {
		row[i] = i
	}
	var out []Match
	var walk func(n *node, path string, prev []int)
	walk = func(n *node, path string, prev []int) {
		if n.terminal && prev[len(query)] <= maxDist {
			out = append(out, Match{Tag: path, Distance: prev[len(query)]})
		}
		for b, child := range n.children {
			cur := make([]int, len(query)+1)
			cur[0] = prev[0] + 1
			minVal := cur[0]
			for i := 1; i <= len(query); i++ {
				cost := 1
				if query[i-1] == b {
					cost = 0
				}
				cur[i] = minOf(cur[i-1]+1, prev[i]+1, prev[i-1]+cost)
				if cur[i] < minVal {
					minVal = cur[i]
				}
			}
			if minVal <= maxDist {
				walk(child, path+string(b), cur)
			}
		}
	}
	walk(t.root, "", row)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Distance != out[j].Distance {
			return out[i].Distance < out[j].Distance
		}
		return out[i].Tag < out[j].Tag
	})
	return out
}

// Closest returns the nearest stored tag within maxDist, or "" when none.
func (t *Trie) Closest(query string, maxDist int) (string, bool) {
	if t.Contains(query) {
		return query, true
	}
	ms := t.Within(query, maxDist)
	if len(ms) == 0 {
		return "", false
	}
	return ms[0].Tag, true
}

func minOf(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
