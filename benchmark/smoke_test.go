package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestSmoke runs every workload for about a second in -quick mode with the
// decorators in and checks the schema only — every metric BENCHMARK.json
// names comes out, the trace file parses, spans nest. No timing is
// asserted: the numbers of a one-second run on a loaded CI host mean
// nothing.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots six clusters; skipped under -short")
	}
	dir := t.TempDir()
	for _, w := range append(append([]workloadSpec(nil), workloadSpecs...), handRun...) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			cfg := config{workload: w.Name, seed: 7, seconds: 1, trace: true, quick: true, dir: dir}
			out, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range out.violations {
				t.Errorf("violation: %s", v)
			}
			if out.attempted < 1 {
				t.Errorf("attempted %d", out.attempted)
			}
			if out.failed != 0 {
				// Not the schema's business: one boot in several hundred
				// never forms its ring, and a stall can split one.
				t.Logf("%d of %d operations failed: %v", out.failed, out.attempted, out.info)
			}
			// A traced run computes the end-to-end metrics too (it prints
			// them beside the per-layer ones), so one run covers both lists.
			for _, m := range endToEnd {
				if v, ok := out.metrics[m.Name]; !ok || v <= 0 {
					t.Errorf("end-to-end metric %s = %v (set: %v); it must be measured and never 0", m.Name, v, ok)
				}
			}
			known := make(map[string]bool)
			for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
				known[m.Name] = true
				if unitOf(m.Name) != m.Unit {
					t.Errorf("%s: unit %q reported as %q", m.Name, m.Unit, unitOf(m.Name))
				}
			}
			for name := range out.metrics {
				if !known[name] {
					t.Errorf("the run emitted %s, which BENCHMARK.json does not name", name)
				}
			}
			if _, ok := out.metrics["trace.spans"]; !ok {
				t.Error("the traced run did not report trace.spans")
			}
			checkTraceFile(t, filepath.Join(dir, "out", w.Name+".trace.jsonl"), int(out.metrics["trace.spans"]))
		})
	}
}

// checkTraceFile parses the JSON-lines trace and checks that every span
// with a parent lies inside a span of that name in the same request.
func checkTraceFile(t *testing.T, path string, want int) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type key struct{ req, name string }
	byKey := make(map[key]span)
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: line %d does not parse: %v", path, len(spans)+1, err)
		}
		if s.Req == "" || s.Name == "" || s.End < s.Start {
			t.Errorf("malformed span %+v", s)
		}
		spans = append(spans, s)
		byKey[key{s.Req, s.Name}] = s
	}
	if len(spans) != want {
		t.Errorf("%s holds %d spans, the run reported %d", path, len(spans), want)
	}
	for _, s := range spans {
		if s.Parent == "" {
			continue
		}
		p, ok := byKey[key{s.Req, s.Parent}]
		if !ok {
			t.Errorf("span %s of request %s names parent %s, which the request does not have", s.Name, s.Req, s.Parent)
			continue
		}
		if s.Start < p.Start || s.End > p.End {
			t.Errorf("span %s [%d,%d] of request %s is not inside its parent %s [%d,%d]",
				s.Name, s.Start, s.End, s.Req, p.Name, p.Start, p.End)
		}
	}
}
