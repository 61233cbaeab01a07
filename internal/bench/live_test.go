package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"github.com/totem-rrp/totem/internal/live"
)

func tableGate(t *testing.T, figure string) Gate {
	t.Helper()
	for _, f := range LiveFigures {
		if f.Name == figure {
			return f.Gates[0]
		}
	}
	t.Fatalf("no live figure %q", figure)
	return Gate{}
}

func pt(scenario string, kv ...any) live.Point {
	p := live.Point{Scenario: scenario, Metrics: map[string]float64{}}
	for i := 0; i < len(kv); i += 2 {
		p.Metrics[kv[i].(string)] = kv[i+1].(float64)
	}
	return p
}

// TestLiveGates drives the table's own gate rows with synthetic points:
// each verdict the four retired gates could reach is one case.
func TestLiveGates(t *testing.T) {
	portable := pt("wire/portable", "msgs_per_sec", 150e3, "syscalls_per_msg", 0.94)
	bulkBase := pt("bulk/baseline", "probes", 20e3, "p99_latency_us", 400.0)
	logdFaulted := pt("logd/faulted", "appends", 5000.0, "p99_latency_us", 30e3, "duplicates", 0.0)
	cases := []struct {
		name   string
		figure string
		points []live.Point
		ok     bool
		says   string
	}{
		{"wire passes on syscalls alone", "wire",
			[]live.Point{portable, pt("wire/batch", "msgs_per_sec", 180e3, "syscalls_per_msg", 0.06)}, true, "PASS"},
		{"wire passes on throughput alone", "wire",
			[]live.Point{portable, pt("wire/batch", "msgs_per_sec", 310e3, "syscalls_per_msg", 0.9)}, true, "PASS"},
		{"wire fails both ratios", "wire",
			[]live.Point{portable, pt("wire/batch", "msgs_per_sec", 180e3, "syscalls_per_msg", 0.6)}, false, "FAIL"},
		{"wire fails the absolute floor", "wire",
			[]live.Point{pt("wire/portable", "msgs_per_sec", 4000.0, "syscalls_per_msg", 0.94),
				pt("wire/batch", "msgs_per_sec", 9000.0, "syscalls_per_msg", 0.06)}, false, "floor 10000"},
		{"wire without a batch driver passes vacuously", "wire",
			[]live.Point{portable}, true, "vacuous pass"},
		{"wire without its baseline fails", "wire",
			[]live.Point{pt("wire/batch", "msgs_per_sec", 180e3, "syscalls_per_msg", 0.06)}, false, "no wire/portable baseline"},
		{"shards pass at 4x", "shards",
			[]live.Point{pt("shards/1", "msgs_per_sec", 33e3), pt("shards/4", "msgs_per_sec", 139e3)}, true, "PASS"},
		{"shards fail at 2x", "shards",
			[]live.Point{pt("shards/1", "msgs_per_sec", 33e3), pt("shards/4", "msgs_per_sec", 66e3)}, false, "need >= 3x"},
		{"shards without the multi-ring point fail", "shards",
			[]live.Point{pt("shards/1", "msgs_per_sec", 33e3)}, false, "no shards/4 point"},
		{"bulk passes inside the bound", "bulk",
			[]live.Point{bulkBase, pt("bulk/bulk-lane", "probes", 20e3, "p99_latency_us", 900.0, "bulk_mb_per_sec", 34.0)}, true, "PASS"},
		{"bulk fails past the bound", "bulk",
			[]live.Point{bulkBase, pt("bulk/bulk-lane", "probes", 20e3, "p99_latency_us", 2100.0, "bulk_mb_per_sec", 34.0)}, false, "need <= 5x"},
		{"bulk with zero probes fails", "bulk",
			[]live.Point{bulkBase, pt("bulk/bulk-lane", "probes", 0.0, "p99_latency_us", 0.0, "bulk_mb_per_sec", 34.0)}, false, "probes is 0, must be positive"},
		{"bulk lane that moved no data fails", "bulk",
			[]live.Point{bulkBase, pt("bulk/bulk-lane", "probes", 20e3, "p99_latency_us", 450.0, "bulk_mb_per_sec", 0.0)}, false, "bulk_mb_per_sec is 0, must be positive"},
		{"logd passes under the ceiling", "logd",
			[]live.Point{pt("logd/healthy", "appends", 2800.0, "p99_latency_us", 12e3, "duplicates", 0.0), logdFaulted}, true, "PASS"},
		{"logd fails over the ceiling", "logd",
			[]live.Point{pt("logd/healthy", "appends", 2800.0, "p99_latency_us", 300e3, "duplicates", 0.0), logdFaulted}, false, "ceiling 250000"},
		{"logd with a stored duplicate fails", "logd",
			[]live.Point{pt("logd/healthy", "appends", 2800.0, "p99_latency_us", 12e3, "duplicates", 0.0),
				pt("logd/faulted", "appends", 5000.0, "p99_latency_us", 30e3, "duplicates", 2.0)}, false, "logd/faulted duplicates is 2, must be 0"},
		{"logd that committed nothing fails", "logd",
			[]live.Point{pt("logd/healthy", "appends", 0.0, "p99_latency_us", 0.0, "duplicates", 0.0), logdFaulted}, false, "appends is 0, must be positive"},
		{"logd without the faulted point fails", "logd",
			[]live.Point{pt("logd/healthy", "appends", 2800.0, "p99_latency_us", 12e3, "duplicates", 0.0)}, false, "logd/faulted"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			verdict, ok := tableGate(t, c.figure).Check(c.points)
			if ok != c.ok || !strings.Contains(verdict, c.says) {
				t.Fatalf("ok=%v, want %v with %q in the verdict:\n%s", ok, c.ok, c.says, verdict)
			}
		})
	}
}

// TestCommittedReportRoundTrips pins the report format: the committed
// BENCH_hotpath.json decodes into HotPathReport and re-encodes to the same
// bytes, so no section or metric is dropped or renamed on the way through.
func TestCommittedReportRoundTrips(t *testing.T) {
	want, err := os.ReadFile("../../BENCH_hotpath.json")
	if err != nil {
		t.Fatal(err)
	}
	var rep HotPathReport
	dec := json.NewDecoder(bytes.NewReader(want))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		t.Fatal(err)
	}
	for _, f := range LiveFigures {
		if len(*rep.Section(f.Key)) == 0 {
			t.Errorf("committed report has no %s section", f.Key)
		}
	}
	var got bytes.Buffer
	if err := WriteHotPathJSON(&got, rep); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("BENCH_hotpath.json does not re-encode byte-identically (%d bytes in, %d out)", len(want), got.Len())
	}
}
