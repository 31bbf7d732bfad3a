// Package promtext validates the Prometheus text exposition format. It is
// test support: the /metrics tests feed the live payload through Validate,
// and no production package imports it (make deps-check).
package promtext

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Validate checks a payload against the Prometheus text
// exposition format (0.0.4): comment/TYPE syntax, metric-name and label
// grammar, parseable sample values, and the histogram/summary contracts —
// every histogram has monotonically non-decreasing buckets ending in a
// mandatory "+Inf" bucket equal to its _count, plus _sum and _count series;
// every summary has _sum and _count. It returns the first violation found,
// or nil for a conformant payload. The /metrics test feeds the full live
// payload through this, so a malformed series is a test failure rather than
// a scrape-time surprise.
func Validate(r io.Reader) error {
	type hist struct {
		typ     string // "histogram" or "summary"
		buckets []promBucket
		hasSum  bool
		count   float64
		hasCnt  bool
	}
	hists := map[string]*hist{}
	types := map[string]string{}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 2 && fields[1] == "TYPE" {
				if len(fields) != 4 {
					return fmt.Errorf("line %d: malformed TYPE comment %q", lineNo, line)
				}
				name, typ := fields[2], fields[3]
				if !validPromName(name) {
					return fmt.Errorf("line %d: invalid metric name %q", lineNo, name)
				}
				switch typ {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fmt.Errorf("line %d: invalid metric type %q", lineNo, typ)
				}
				if _, dup := types[name]; dup {
					return fmt.Errorf("line %d: duplicate TYPE for %q", lineNo, name)
				}
				types[name] = typ
				if typ == "histogram" || typ == "summary" {
					hists[name] = &hist{typ: typ}
				}
			}
			continue
		}

		name, labels, value, err := parsePromSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %v", lineNo, err)
		}
		base, suffix := name, ""
		for _, s := range [...]string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, s) {
				if _, ok := hists[strings.TrimSuffix(name, s)]; ok {
					base, suffix = strings.TrimSuffix(name, s), s
					break
				}
			}
		}
		if h, ok := hists[base]; ok {
			switch suffix {
			case "_bucket":
				if h.typ != "histogram" {
					return fmt.Errorf("line %d: _bucket series on %s %q", lineNo, h.typ, base)
				}
				le, ok := labels["le"]
				if !ok {
					return fmt.Errorf("line %d: histogram bucket without le label", lineNo)
				}
				ub, err := parsePromValue(le)
				if err != nil {
					return fmt.Errorf("line %d: bad le value %q", lineNo, le)
				}
				h.buckets = append(h.buckets, promBucket{ub: ub, count: value})
			case "_sum":
				h.hasSum = true
			case "_count":
				h.hasCnt, h.count = true, value
			case "":
				if h.typ == "summary" {
					if _, ok := labels["quantile"]; !ok {
						return fmt.Errorf("line %d: summary series without quantile label", lineNo)
					}
				} else {
					return fmt.Errorf("line %d: bare series %q on histogram", lineNo, name)
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}

	names := make([]string, 0, len(hists))
	for name := range hists {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := hists[name]
		if !h.hasSum {
			return fmt.Errorf("%s %q missing _sum series", h.typ, name)
		}
		if !h.hasCnt {
			return fmt.Errorf("%s %q missing _count series", h.typ, name)
		}
		if h.typ != "histogram" {
			continue
		}
		if len(h.buckets) == 0 {
			return fmt.Errorf("histogram %q has no buckets", name)
		}
		last := h.buckets[len(h.buckets)-1]
		if !math.IsInf(last.ub, 1) {
			return fmt.Errorf("histogram %q missing +Inf bucket", name)
		}
		if last.count != h.count {
			return fmt.Errorf("histogram %q: +Inf bucket %g != _count %g", name, last.count, h.count)
		}
		for i := 1; i < len(h.buckets); i++ {
			if h.buckets[i].ub <= h.buckets[i-1].ub {
				return fmt.Errorf("histogram %q: bucket bounds not increasing at le=%g", name, h.buckets[i].ub)
			}
			if h.buckets[i].count < h.buckets[i-1].count {
				return fmt.Errorf("histogram %q: bucket counts not cumulative at le=%g", name, h.buckets[i].ub)
			}
		}
	}
	return nil
}

type promBucket struct {
	ub    float64
	count float64
}

// parsePromSample parses one sample line: name{label="v",...} value [ts].
func parsePromSample(line string) (name string, labels map[string]string, value float64, err error) {
	rest := line
	i := 0
	for i < len(rest) && isPromNameChar(rest[i], i == 0) {
		i++
	}
	name = rest[:i]
	if !validPromName(name) {
		return "", nil, 0, fmt.Errorf("invalid metric name in %q", line)
	}
	rest = rest[i:]
	labels = map[string]string{}
	if strings.HasPrefix(rest, "{") {
		end := strings.Index(rest, "}")
		if end < 0 {
			return "", nil, 0, fmt.Errorf("unterminated label set in %q", line)
		}
		body := rest[1:end]
		rest = rest[end+1:]
		for _, pair := range splitPromLabels(body) {
			eq := strings.Index(pair, "=")
			if eq < 0 {
				return "", nil, 0, fmt.Errorf("malformed label %q", pair)
			}
			k, v := pair[:eq], pair[eq+1:]
			if !validPromLabelName(k) {
				return "", nil, 0, fmt.Errorf("invalid label name %q", k)
			}
			uq, uerr := strconv.Unquote(v)
			if uerr != nil {
				return "", nil, 0, fmt.Errorf("unquoted label value %q", v)
			}
			labels[k] = uq
		}
	}
	fields := strings.Fields(rest)
	if len(fields) != 1 && len(fields) != 2 {
		return "", nil, 0, fmt.Errorf("want value [timestamp] after name, got %q", rest)
	}
	value, err = parsePromValue(fields[0])
	if err != nil {
		return "", nil, 0, fmt.Errorf("bad sample value %q", fields[0])
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return "", nil, 0, fmt.Errorf("bad timestamp %q", fields[1])
		}
	}
	return name, labels, value, nil
}

// splitPromLabels splits a label-set body on commas outside quotes.
func splitPromLabels(body string) []string {
	var out []string
	depth := false // inside quotes
	start := 0
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '"':
			if i == 0 || body[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				if p := strings.TrimSpace(body[start:i]); p != "" {
					out = append(out, p)
				}
				start = i + 1
			}
		}
	}
	if p := strings.TrimSpace(body[start:]); p != "" {
		out = append(out, p)
	}
	return out
}

// parsePromValue parses a sample value, accepting the special +Inf/-Inf/NaN
// forms.
func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

func validPromName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if !isPromNameChar(s[i], i == 0) {
			return false
		}
	}
	return true
}

func isPromNameChar(c byte, first bool) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		return true
	case c >= '0' && c <= '9':
		return !first
	}
	return false
}

func validPromLabelName(s string) bool {
	if s == "" || strings.HasPrefix(s, "__") {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || (c >= '0' && c <= '9' && i > 0)
		if !ok {
			return false
		}
	}
	return true
}
