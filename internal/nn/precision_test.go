package nn

import (
	"strings"
	"testing"
)

// TestParsePrecision pins the accepted spellings and that everything else —
// the retired "int8" included — is an error naming the two that remain,
// rather than a silent fallback to some other arithmetic.
func TestParsePrecision(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Precision
		ok   bool
	}{
		{"", Mixed, true},
		{"mixed", Mixed, true},
		{"float64", Float64, true},
		{"int8", 0, false},
		{"Mixed", 0, false},
		{"fp16", 0, false},
	} {
		got, err := ParsePrecision(c.in)
		if c.ok {
			if err != nil || got != c.want {
				t.Errorf("ParsePrecision(%q) = %v, %v; want %v", c.in, got, err, c.want)
			}
			if c.in != "" && got.String() != c.in {
				t.Errorf("Precision %q prints as %q", c.in, got.String())
			}
			continue
		}
		if err == nil {
			t.Errorf("ParsePrecision(%q) = %v, want an error", c.in, got)
			continue
		}
		for _, name := range []string{c.in, "float64", "mixed"} {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("ParsePrecision(%q) error %q does not mention %q", c.in, err, name)
			}
		}
	}
}
