package bench

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"github.com/totem-rrp/totem/internal/live"
	"github.com/totem-rrp/totem/internal/transport"
)

// LiveFigure is one live section of BENCH_hotpath.json: the scenarios that
// make it up, the gates it must pass and the columns its table shows. The
// four figures below are the whole live bench — a new measurement is a new
// row here, run by live.Run and judged by Gate.Check like every other.
type LiveFigure struct {
	Name      string // what `totembench -live` calls it
	Key       string // its section of BENCH_hotpath.json
	Title     string
	Columns   []string
	Scenarios []live.Scenario
	Gates     []Gate
}

// LiveFigures is the scenario table. Every cluster is the paper's Figure 6
// testbed shape, 4 nodes × 2 networks.
var LiveFigures = []LiveFigure{
	{
		// The live Figure 6 analog: the ring at saturation, 100-byte
		// payloads (the figure's left edge, where per-message kernel cost
		// dominates), once per UDP kernel driver in one process on identical
		// hardware — and once on the in-memory hub, the wire-free ceiling.
		Name: "wire", Key: "figure6_live",
		Title:   "figure 6 live analog (ring at saturation, wall clock)",
		Columns: []string{"msgs_per_sec", "kbytes_per_sec", "syscalls_per_msg", "p50_latency_us", "p99_latency_us", "tx_errors"},
		Scenarios: []live.Scenario{
			{Name: "wire/portable", Nodes: 4, Networks: 2, Transport: "udp", WirePath: transport.WirePathPortable, Shards: 1, Load: live.Saturate, MsgLen: 100},
			{Name: "wire/batch", Nodes: 4, Networks: 2, Transport: "udp", WirePath: transport.WirePathBatch, Shards: 1, Load: live.Saturate, MsgLen: 100},
			{Name: "wire/mem", Nodes: 4, Networks: 2, Transport: "mem", Shards: 1, Load: live.Saturate, MsgLen: 100},
		},
		Gates: []Gate{{
			// The batched driver must pay for itself — in throughput or at
			// the kernel boundary — and clear an absolute rate any CI host
			// reaches. A platform without it passes vacuously, so one CI
			// invocation fits every platform.
			Name: "live wire gate", Of: "wire/batch", Against: "wire/portable",
			AnyOf:  []Ratio{{Metric: "msgs_per_sec", Min: 2}, {Metric: "syscalls_per_msg", Max: 0.5}},
			Metric: "msgs_per_sec", Floor: 10000,
			Vacuous: true,
		}},
	},
	{
		// Multi-ring scaling: 1 ring against 4 on a latency-floored mem
		// wire, so a single ring is bound by its token rotation. CPU-bound
		// loopback would conflate ring-count with core-count scaling.
		Name: "shards", Key: "figure6_shards",
		Title:   "multi-ring sharding scaling (mem wire, uniform latency floor)",
		Columns: []string{"shards", "msgs_per_sec", "kbytes_per_sec", "p50_latency_us", "p99_latency_us"},
		Scenarios: []live.Scenario{
			{Name: "shards/1", Nodes: 4, Networks: 2, Transport: "mem", RotateLat: 250 * time.Microsecond, Shards: 1, Load: live.Saturate, MsgLen: 100},
			{Name: "shards/4", Nodes: 4, Networks: 2, Transport: "mem", RotateLat: 250 * time.Microsecond, Shards: 4, Load: live.Saturate, MsgLen: 100},
		},
		Gates: []Gate{{
			Name: "shard gate", Of: "shards/4", Against: "shards/1",
			AnyOf: []Ratio{{Metric: "msgs_per_sec", Min: 3}},
		}},
	},
	{
		// What a saturating transfer costs interactive p99: probes alone,
		// with the stream forced through the interactive lane (the pre-lane
		// protocol), and with it on the rate-limited bulk lane.
		Name: "bulk", Key: "figure_bulk",
		Title:   "bulk lanes (interactive p99 under a saturating stream, loopback UDP)",
		Columns: []string{"probes", "p50_latency_us", "p99_latency_us", "bulk_mb_per_sec", "bulk_transfers"},
		Scenarios: []live.Scenario{
			{Name: "bulk/baseline", Nodes: 4, Networks: 2, Transport: "udp", Shards: 1, Load: live.Probes, MsgLen: 64},
			{Name: "bulk/interactive-lane", Nodes: 4, Networks: 2, Transport: "udp", Shards: 1, Load: live.ProbesBulkSend, MsgLen: 64},
			{Name: "bulk/bulk-lane", Nodes: 4, Networks: 2, Transport: "udp", Shards: 1, Load: live.ProbesBulkLane, MsgLen: 64},
		},
		Gates: []Gate{{
			// A stalled lane would pass any latency bar: it must move data.
			Name: "bulk lane gate", Of: "bulk/bulk-lane", Against: "bulk/baseline",
			AnyOf: []Ratio{{Metric: "p99_latency_us", Max: 5}},
			Positive: []Cond{
				{"bulk/baseline", "probes"}, {"bulk/bulk-lane", "probes"}, {"bulk/bulk-lane", "bulk_mb_per_sec"},
			},
		}},
	},
	{
		// Client-observed append commit latency on a 4-member logd, healthy
		// and with the torture schedule inside the window.
		Name: "logd", Key: "figure_logd",
		Title:   "replicated log (client-observed append commit latency)",
		Columns: []string{"appends", "failures", "appends_per_sec", "p50_latency_us", "p99_latency_us", "duplicates"},
		Scenarios: []live.Scenario{
			{Name: "logd/healthy", Nodes: 4, Networks: 2, Transport: "mem", Shards: 1, Load: live.Appends, MsgLen: 128},
			{Name: "logd/faulted", Nodes: 4, Networks: 2, Transport: "mem", Shards: 1, Load: live.Appends, MsgLen: 128, Faults: true},
		},
		Gates: []Gate{{
			// The faulted tail legitimately holds reformation stalls, so only
			// its correctness is gated.
			Name: "logd gate", Of: "logd/healthy",
			Metric: "p99_latency_us", Ceiling: 250e3,
			Zero:     []Cond{{"logd/healthy", "duplicates"}, {"logd/faulted", "duplicates"}},
			Positive: []Cond{{"logd/healthy", "appends"}, {"logd/faulted", "appends"}, {"logd/healthy", "p99_latency_us"}},
		}},
	},
}

// RunLive measures every scenario of f the platform can run, each over a
// window of dur.
func RunLive(f LiveFigure, dur time.Duration) ([]live.Point, error) {
	var out []live.Point
	for _, sc := range f.Scenarios {
		if sc.WirePath == transport.WirePathBatch && !transport.BatchSupported() {
			continue
		}
		p, err := live.Run(sc, dur)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// Ratio bounds one metric of a gate's scenario over its baseline's. Min
// and Max are inclusive; 0 leaves that side open. A ratio with a
// non-positive term is not a measurement and does not hold.
type Ratio struct {
	Metric   string
	Min, Max float64
}

// Cond names one metric of one scenario, for a gate's side conditions.
type Cond struct{ Scenario, Metric string }

// Gate is one acceptance bar over a figure's points, declared as data:
// relative (Of against a baseline scenario), absolute (a floor or ceiling
// on Of's Metric), or both, plus metrics that must be zero or positive for
// the comparison to mean anything.
type Gate struct {
	Name        string // leads the verdict line
	Of, Against string // scenario under test; baseline scenario, "" for none
	AnyOf       []Ratio
	Metric      string  // absolute bounds apply to Of's Metric …
	Floor       float64 // … which must be >= Floor
	Ceiling     float64 // … and, when Ceiling > 0, <= Ceiling
	Zero        []Cond
	Positive    []Cond
	// Vacuous passes the gate when Of was not measured (a platform without
	// the driver under test).
	Vacuous bool
}

// Check judges points against the gate. It returns a human-readable
// verdict line and whether the gate passed; a missing point or metric
// fails.
func (g Gate) Check(points []live.Point) (string, bool) {
	// metricsOf returns the scenario's metrics, nil if it has no point.
	metricsOf := func(scenario string) map[string]float64 {
		for _, p := range points {
			if p.Scenario == scenario {
				return p.Metrics
			}
		}
		return nil
	}
	metric := func(c Cond) (float64, bool) {
		v, ok := metricsOf(c.Scenario)[c.Metric]
		return v, ok
	}
	verdict := func(ok bool, parts ...string) (string, bool) {
		word := "PASS"
		if !ok {
			word = "FAIL"
		}
		return fmt.Sprintf("%s: %s — %s", g.Name, strings.Join(parts, "; "), word), ok
	}

	if metricsOf(g.Of) == nil {
		if g.Vacuous {
			return fmt.Sprintf("%s: no %s point on this platform (vacuous pass)", g.Name, g.Of), true
		}
		return verdict(false, "no "+g.Of+" point")
	}
	ok := true
	var parts []string
	if g.Against != "" {
		if metricsOf(g.Against) == nil {
			return verdict(false, "no "+g.Against+" baseline point")
		}
		any := len(g.AnyOf) == 0
		for _, r := range g.AnyOf {
			of, _ := metric(Cond{g.Of, r.Metric})
			base, _ := metric(Cond{g.Against, r.Metric})
			ratio := 0.0
			if of > 0 && base > 0 {
				ratio = of / base
			}
			need := fmt.Sprintf(">= %.4gx", r.Min)
			if r.Max > 0 {
				need = fmt.Sprintf("<= %.4gx", r.Max)
			}
			parts = append(parts, fmt.Sprintf("%s %s vs %s (%.2fx, need %s)",
				r.Metric, num(of), num(base), ratio, need))
			any = any || (ratio > 0 && ratio >= r.Min && (r.Max == 0 || ratio <= r.Max))
		}
		if len(g.AnyOf) > 1 {
			parts = []string{strings.Join(parts, " or ")}
		}
		ok = ok && any
	}
	if g.Metric != "" {
		v, present := metric(Cond{g.Of, g.Metric})
		ok = ok && present && v >= g.Floor && (g.Ceiling == 0 || v <= g.Ceiling)
		bound := fmt.Sprintf("floor %s", num(g.Floor))
		if g.Ceiling > 0 {
			bound = fmt.Sprintf("ceiling %s", num(g.Ceiling))
		}
		parts = append(parts, fmt.Sprintf("%s %s %s (%s)", g.Of, g.Metric, num(v), bound))
	}
	for _, c := range g.Zero {
		if v, present := metric(c); !present || v != 0 {
			ok = false
			parts = append(parts, fmt.Sprintf("%s %s is %s, must be 0", c.Scenario, c.Metric, num(v)))
		}
	}
	for _, c := range g.Positive {
		if v, present := metric(c); !present || !(v > 0) {
			ok = false
			parts = append(parts, fmt.Sprintf("%s %s is %s, must be positive", c.Scenario, c.Metric, num(v)))
		}
	}
	return verdict(ok, parts...)
}

// num renders a metric value: integers whole, the rest to three figures.
func num(v float64) string {
	if v == math.Trunc(v) || math.Abs(v) >= 1000 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.3g", v)
}

// PrintPoints renders one figure's points as a table of the given metric
// columns; a point without a column's metric shows "-".
func PrintPoints(w io.Writer, title string, columns []string, points []live.Point) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "  %-22s", "scenario")
	for _, c := range columns {
		fmt.Fprintf(w, " %*s", max(len(c), 9), c)
	}
	fmt.Fprintln(w)
	for _, p := range points {
		fmt.Fprintf(w, "  %-22s", p.Scenario)
		for _, c := range columns {
			cell := "-"
			if v, ok := p.Metrics[c]; ok {
				cell = num(v)
			}
			fmt.Fprintf(w, " %*s", max(len(c), 9), cell)
		}
		fmt.Fprintln(w)
	}
}
