package main

import (
	"os"
	"testing"

	"saccs/internal/tokenize"
)

// The full pipeline, once: train, index the paper-scale world, then every
// workload untraced and traced with segments a sixteenth of their length.
// Skipped under -short because set-up alone takes a quarter of a minute.
func TestAllWorkloadsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the pipeline")
	}
	e, err := setUp(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer e.c.Shutdown()
	devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devNull.Close()

	t.Run("cold stream misses the cache once per sentence", func(t *testing.T) {
		h := &harness{env: e, seed: 3, scale: 1, entity: e.c.Entity, topK: e.topK}
		gen := newColdGen(e.domain, 99)
		before := e.c.Stats()
		sentences := 0
		for i := 0; i < 200; i++ {
			u := gen.Next()
			sentences += len(tokenize.Sentences(u))
			h.query(0, u, nil)
		}
		after := e.c.Stats()
		if got := counterDelta(before, after, "extract.cache.miss.total"); int(got) != sentences {
			t.Errorf("%d cache misses for %d sentences issued", int(got), sentences)
		}
		if got := counterDelta(before, after, "extract.cache.hit.total"); got != 0 {
			t.Errorf("%d cache hits on a stream that never repeats", int(got))
		}
		if h.failed != 0 {
			t.Errorf("%d of %d ops failed: %q", h.failed, h.attempted, h.notes)
		}
	})

	for _, wd := range allWorkloads() {
		for _, trace := range []bool{false, true} {
			name := wd.Name + "/untraced"
			if trace {
				name = wd.Name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				w, err := newWorkload(wd.Name)
				if err != nil {
					t.Fatal(err)
				}
				// The traced run takes another seed so that its stream goes to
				// entities the untraced run has not already made.
				o := options{workload: wd.Name, seed: 3, seconds: 0.5, trace: trace, workDir: t.TempDir(), scale: 16}
				if trace {
					o.seed = 4
				}
				res, err := drive(e, w, o, 1, devNull)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct %t, %d failed of %d", res.Correct, res.Failed, res.Attempted)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics in the result, %d declared", len(res.Metrics), len(defs))
				}
				if !trace {
					for _, d := range defs {
						if res.Metrics[d.Name].Value <= 0 {
							t.Errorf("%s = %v; end-to-end metrics are never 0", d.Name, res.Metrics[d.Name].Value)
						}
					}
				}
			})
		}
	}
}
