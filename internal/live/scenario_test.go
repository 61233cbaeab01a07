package live_test

import (
	"bytes"
	"math"
	"slices"
	"testing"
	"time"

	"github.com/totem-rrp/totem/internal/bench"
)

// TestScenarioTableSmoke runs every row of the table for a short window so
// that a scenario cannot rot unseen (it lives here, not beside the table in
// internal/bench, so that its saturated rings never run concurrently with
// this package's timing-sensitive tests): each point must carry exactly the
// metrics its scenario declares, all finite, and every gate must find the
// scenarios and metrics it names.
func TestScenarioTableSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock harness")
	}
	for _, f := range bench.LiveFigures {
		points, err := bench.RunLive(f, 200*time.Millisecond)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		declared := map[string][]string{}
		for _, sc := range f.Scenarios {
			declared[sc.Name] = sc.Metrics()
		}
		for _, p := range points {
			for _, name := range declared[p.Scenario] {
				if v, ok := p.Metrics[name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: declared metric %s = %v (present %v)", p.Scenario, name, v, ok)
				}
			}
			if len(p.Metrics) != len(declared[p.Scenario]) {
				t.Errorf("%s: %d metrics reported, %d declared: %v", p.Scenario, len(p.Metrics), len(declared[p.Scenario]), p.Metrics)
			}
		}
		// A 200 ms window is too short to hold the bars; what it can show
		// is a gate naming a scenario or metric the table does not declare.
		for _, g := range f.Gates {
			named := append(append([]bench.Cond{{Scenario: g.Of, Metric: g.Metric}}, g.Zero...), g.Positive...)
			for _, r := range g.AnyOf {
				named = append(named, bench.Cond{Scenario: g.Of, Metric: r.Metric}, bench.Cond{Scenario: g.Against, Metric: r.Metric})
			}
			for _, c := range named {
				if c.Metric != "" && !slices.Contains(declared[c.Scenario], c.Metric) {
					t.Errorf("%s names %s %s, which the table does not declare", g.Name, c.Scenario, c.Metric)
				}
			}
		}
		var buf bytes.Buffer
		bench.PrintPoints(&buf, f.Title, f.Columns, points)
		t.Log("\n" + buf.String())
	}
}
