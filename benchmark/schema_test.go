package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

type schemaMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type schema struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []schemaMetric `json:"end_to_end"`
	PerLayer []schemaMetric `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and the harness's registry must say the same thing, name by
// name: what the file promises is what a run prints, and the reverse.
func TestSchemaMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	var s schema
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		t.Fatal(err)
	}

	compare := func(kind string, file []schemaMetric, registry []metricDef, bounded bool) {
		t.Helper()
		if len(file) != len(registry) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the registry", kind, len(file), len(registry))
		}
		inFile := map[string]schemaMetric{}
		for _, m := range file {
			if _, dup := inFile[m.Name]; dup {
				t.Errorf("%s: %s is declared twice", kind, m.Name)
			}
			inFile[m.Name] = m
		}
		for _, d := range registry {
			m, ok := inFile[d.Name]
			if !ok {
				t.Errorf("%s: %s is in the registry but not in BENCHMARK.json", kind, d.Name)
				continue
			}
			delete(inFile, d.Name)
			if m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s: %s is %s/%s in BENCHMARK.json and %s/%s in the registry", kind, d.Name, m.Unit, m.Better, d.Unit, d.Better)
			}
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
				t.Errorf("%s: %s (%s) is not a valid name and unit", kind, d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: %s is better %q", kind, d.Name, d.Better)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s: %s has bound %v in BENCHMARK.json and %v in the registry (0 < bound ≤ 0.25)", kind, d.Name, m.Bound, d.Bound)
			case !bounded && m.Bound != nil:
				t.Errorf("%s: %s has a bound; per-layer metrics have none", kind, d.Name)
			}
		}
		for name := range inFile {
			t.Errorf("%s: %s is in BENCHMARK.json but not in the registry", kind, name)
		}
	}
	compare("end_to_end", s.EndToEnd, endToEnd, true)
	compare("per_layer", s.PerLayer, perLayer, false)

	if len(s.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the registry", len(s.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if i >= len(s.Workloads) {
			break
		}
		if got := s.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d is %q (%q) in BENCHMARK.json and %q (%q) in the registry", i, got.Name, got.Why, w.Name, w.Why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %s: bad name, or a why of %d characters", w.Name, len(w.Why))
		}
	}
	for _, name := range workloadNames() {
		if _, err := newWorkload(name); err != nil {
			t.Errorf("workload %s: %v", name, err)
		}
	}

	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("%s is used twice", d.Name)
		}
		seen[d.Name] = true
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Error("the first end-to-end metric must be setup_s, in s, lower is better")
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", s.RunSeconds)
	}
	if len(s.Paths) != 1 || s.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", s.Paths)
	}
}

// A result line carries every metric of its kind, measured or not.
func TestResultCarriesEveryMetric(t *testing.T) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		got := resultMetrics(defs, metricSet{defs[0].Name: 1.5})
		if len(got) != len(defs) {
			t.Errorf("%d metrics in the result, %d declared", len(got), len(defs))
		}
		if got[defs[0].Name].Value != 1.5 || got[defs[0].Name].Unit != defs[0].Unit {
			t.Errorf("%s = %+v", defs[0].Name, got[defs[0].Name])
		}
	}
}
