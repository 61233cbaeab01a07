package totem_test

// Benchmarks regenerating the paper's evaluation (§8). One benchmark per
// experiment; sub-benchmarks cover each (style, message length) point. The
// experiments run on the discrete-event simulator in virtual time, so the
// reported custom metrics (msgs/s, KB/s — virtual) are deterministic; the
// wall-clock ns/op merely reflects how fast the simulator executes.
//
//	go test -bench=Figure -benchmem
//
// regenerates every figure; cmd/totembench prints the same data as the
// aligned tables recorded in EXPERIMENTS.md.

import (
	"fmt"
	"testing"
	"time"

	totem "github.com/totem-rrp/totem"
	"github.com/totem-rrp/totem/internal/bench"
)

// benchLengths is the sweep used by the figure benchmarks; PaperLengths
// is the full grid (used by cmd/totembench), this subset keeps bench runs
// in minutes while covering both packing peaks and both extremes.
var benchLengths = []int{100, 700, 1000, 1400, 10000}

func runPoint(b *testing.B, e bench.Experiment) {
	b.Helper()
	var last bench.Result
	for i := 0; i < b.N; i++ {
		r, err := bench.Run(e)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.MsgsPerSec, "vmsgs/s")
	b.ReportMetric(last.KBytesPerSec, "vKB/s")
}

func benchmarkFigure(b *testing.B, nodes int) {
	for _, base := range bench.FigureStyles(nodes) {
		for _, l := range benchLengths {
			e := base
			e.MsgLen = l
			b.Run(fmt.Sprintf("%s/%dB", base.Name, l), func(b *testing.B) {
				runPoint(b, e)
			})
		}
	}
}

// BenchmarkFigure6SendRate4Nodes regenerates Figures 6 and 8 (4 nodes):
// the two plot one experiment in different units, vmsgs/s is the Figure 6
// series and vKB/s the Figure 8 one.
func BenchmarkFigure6SendRate4Nodes(b *testing.B) { benchmarkFigure(b, 4) }

// BenchmarkFigure7SendRate6Nodes regenerates Figures 7 and 9 (6 nodes),
// likewise.
func BenchmarkFigure7SendRate6Nodes(b *testing.B) { benchmarkFigure(b, 6) }

// BenchmarkHeadlineUtilization regenerates the §2/§8 claim: >9000 1 KB
// msgs/sec ≈ 90% of a 100 Mbit/s Ethernet, with no replication.
func BenchmarkHeadlineUtilization(b *testing.B) {
	var last bench.Result
	for i := 0; i < b.N; i++ {
		r, err := bench.Headline(4)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.MsgsPerSec, "vmsgs/s")
	b.ReportMetric(100*last.Utilization, "util%")
}

// BenchmarkPackingSawtooth regenerates the §8 packing observation: the
// throughput peaks at 700 and 1400 byte messages.
func BenchmarkPackingSawtooth(b *testing.B) {
	for _, l := range []int{650, 700, 730, 1400, 1440} {
		b.Run(fmt.Sprintf("%dB", l), func(b *testing.B) {
			runPoint(b, bench.Experiment{
				Name:     "sawtooth",
				Nodes:    4,
				Networks: 1,
				Style:    totem.NoReplication,
				MsgLen:   l,
			})
		})
	}
}

// BenchmarkActivePassiveThroughput measures the §7 style the paper could
// not evaluate for lack of a third network (E8).
func BenchmarkActivePassiveThroughput(b *testing.B) {
	for _, l := range []int{700, 1000, 1400} {
		b.Run(fmt.Sprintf("K2N3/%dB", l), func(b *testing.B) {
			e := bench.Experiment{
				Name:     "active-passive",
				Nodes:    4,
				Networks: 3,
				K:        2,
				Style:    totem.ActivePassive,
				MsgLen:   l,
			}
			runPoint(b, e)
		})
	}
}

// --- Ablation benchmarks: the design choices DESIGN.md calls out ---

// BenchmarkAblationWindowSize sweeps the flow-control window.
func BenchmarkAblationWindowSize(b *testing.B) {
	for _, w := range []int{10, 20, 40, 80, 160, 320} {
		b.Run(fmt.Sprintf("window%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := bench.AblateWindowSize([]int{w})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(s.Results[0].MsgsPerSec, "vmsgs/s")
			}
		})
	}
}

// BenchmarkAblationMaxPerVisit sweeps the per-token-visit send cap.
func BenchmarkAblationMaxPerVisit(b *testing.B) {
	for _, v := range []int{1, 5, 10, 20, 40} {
		b.Run(fmt.Sprintf("visit%d", v), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := bench.AblateMaxPerVisit([]int{v})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(s.Results[0].MsgsPerSec, "vmsgs/s")
			}
		})
	}
}

// BenchmarkAblationRRPTokenTimeout sweeps the active-replication token
// gather timeout under 1% loss.
func BenchmarkAblationRRPTokenTimeout(b *testing.B) {
	for _, d := range []time.Duration{time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond} {
		b.Run(d.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := bench.AblateRRPTokenTimeout([]time.Duration{d})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(s.Results[0].MsgsPerSec, "vmsgs/s")
			}
		})
	}
}

// BenchmarkAblationK sweeps the active-passive copy count on 4 networks.
func BenchmarkAblationK(b *testing.B) {
	for _, k := range []int{2, 3} {
		b.Run(fmt.Sprintf("K%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := bench.AblateK([]int{k})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(s.Results[0].MsgsPerSec, "vmsgs/s")
			}
		})
	}
}

// BenchmarkAblationRingSize sweeps the member count.
func BenchmarkAblationRingSize(b *testing.B) {
	for _, n := range []int{2, 4, 6, 8} {
		b.Run(fmt.Sprintf("nodes%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := bench.AblateRingSize([]int{n})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(s.Results[0].MsgsPerSec, "vmsgs/s")
			}
		})
	}
}
