// Package bench regenerates the paper's evaluation (§8): throughput of
// the Totem RRP as a function of message length, for 4- and 6-node rings
// with no replication, active replication and passive replication
// (Figures 6–9), plus the in-text headline claims (≈90% utilization of a
// 100 Mbit/s Ethernet at 1 KB messages; packing peaks at 700/1400 B).
//
// Experiments run on the discrete-event simulator in virtual time, so
// results are deterministic and machine-independent; absolute numbers are
// calibrated to the paper's testbed class, and the *shapes* (who wins, by
// how much, where the crossovers sit) are the reproduction target.
package bench

import (
	"fmt"
	"io"
	"time"

	"github.com/totem-rrp/totem/internal/proto"
	"github.com/totem-rrp/totem/internal/sim"
	"github.com/totem-rrp/totem/internal/stack"
	"github.com/totem-rrp/totem/internal/wire"
)

// Experiment describes one throughput measurement.
type Experiment struct {
	// Name labels the experiment in output.
	Name string
	// Nodes and Networks shape the cluster.
	Nodes    int
	Networks int
	// Style and K select the replication style.
	Style proto.ReplicationStyle
	K     int
	// MsgLen is the application payload size in bytes.
	MsgLen int
	// Warmup and Measure are virtual-time phases; deliveries are counted
	// during Measure only.
	Warmup  time.Duration
	Measure time.Duration
	// Backlog is the per-node send-queue depth the workload generator
	// maintains (saturating senders, like the paper's flow-control-bound
	// experiment).
	Backlog int
	// Tune optionally adjusts the protocol stack (ablations).
	Tune func(id proto.NodeID, c *stack.Config)
	// Net and Host override the default simulator models when non-zero.
	Net  sim.NetworkParams
	Host sim.NodeParams
	// Seed makes runs reproducible.
	Seed int64
}

// Result is one measurement.
type Result struct {
	Experiment

	// MsgsPerSec is the system-wide totally-ordered delivery rate (the
	// paper's "total send rate of the system").
	MsgsPerSec float64
	// KBytesPerSec is the corresponding payload bandwidth.
	KBytesPerSec float64
	// Utilization is the share of one network's raw bit rate consumed by
	// delivered payload plus framing (the paper's ~90% headline metric).
	Utilization float64
	// Retransmissions counts packets re-broadcast during Measure.
	Retransmissions uint64
}

// defaults fills unset experiment fields.
func (e Experiment) defaults() Experiment {
	if e.Warmup == 0 {
		e.Warmup = 300 * time.Millisecond
	}
	if e.Measure == 0 {
		e.Measure = time.Second
	}
	if e.Backlog == 0 {
		e.Backlog = 64
	}
	if e.Net == (sim.NetworkParams{}) {
		e.Net = sim.DefaultNetworkParams()
	}
	if e.Host == (sim.NodeParams{}) {
		e.Host = sim.DefaultNodeParams()
	}
	if e.Seed == 0 {
		e.Seed = 1
	}
	return e
}

// Run executes one experiment.
func Run(e Experiment) (Result, error) {
	e = e.defaults()
	cluster, err := sim.NewCluster(sim.Config{
		Nodes:    e.Nodes,
		Networks: e.Networks,
		Style:    e.Style,
		K:        e.K,
		Net:      e.Net,
		Host:     e.Host,
		Seed:     e.Seed,
		TuneSRP: func(id proto.NodeID, c *stack.Config) {
			c.SRP.MaxQueued = 4 * e.Backlog
			if e.Tune != nil {
				e.Tune(id, c)
			}
		},
	})
	if err != nil {
		return Result{}, fmt.Errorf("bench: %w", err)
	}
	ids := cluster.NodeIDs()
	for _, id := range ids {
		cluster.Node(id).KeepPayloads = false
	}
	cluster.Start()
	formed := cluster.RunUntil(func() bool {
		for _, id := range ids {
			n := cluster.Node(id).Stack.SRP()
			if len(n.Members()) != e.Nodes {
				return false
			}
		}
		return true
	}, 10*time.Millisecond, 10*time.Second)
	if !formed {
		return Result{}, fmt.Errorf("bench: ring never formed for %q", e.Name)
	}

	// Saturating workload: a refill pump keeps every node's send queue at
	// the target backlog.
	payload := make([]byte, e.MsgLen)
	var pump func()
	pump = func() {
		for _, id := range ids {
			n := cluster.Node(id)
			for i := 0; i < e.Backlog && n.Stack.Backlog() < e.Backlog; i++ {
				if !cluster.Submit(id, payload) {
					break
				}
			}
		}
		cluster.Sim.After(time.Millisecond, pump)
	}
	cluster.Sim.After(0, pump)

	cluster.Run(e.Warmup)
	probe := cluster.Node(ids[0])
	startMsgs := probe.DeliveredCount
	startBytes := probe.DeliveredBytes
	retransmissions := func() (sum uint64) {
		for _, id := range ids {
			sum += cluster.Node(id).Stack.Metrics().Counter("srp.retransmissions").Count()
		}
		return sum
	}
	startRetrans := retransmissions()

	cluster.Run(e.Measure)

	msgs := probe.DeliveredCount - startMsgs
	bytes := probe.DeliveredBytes - startBytes
	retrans := retransmissions() - startRetrans

	secs := e.Measure.Seconds()
	res := Result{
		Experiment:      e,
		MsgsPerSec:      float64(msgs) / secs,
		KBytesPerSec:    float64(bytes) / secs / 1024,
		Retransmissions: retrans,
	}
	if e.Net.BandwidthBits > 0 {
		// Approximate wire bits: payload plus per-packet framing,
		// amortised by the packing ratio.
		packets := wire.PacketsFor(e.MsgLen, int(msgs))
		wireBits := (float64(bytes) + float64(packets)*float64(wire.FrameOverhead)) * 8
		res.Utilization = wireBits / secs / float64(e.Net.BandwidthBits)
	}
	return res, nil
}

// Series is a labelled sweep over message lengths.
type Series struct {
	Label   string
	Results []Result
}

// PaperLengths is the message-length sweep of Figures 6–9 (log-spaced
// from 100 B to 10 KB, with extra points at the packing peaks).
var PaperLengths = []int{100, 150, 200, 300, 400, 500, 700, 712, 1000, 1400, 1424, 2000, 3000, 5000, 7000, 10000}

// SweepLengths runs base across the given message lengths.
func SweepLengths(base Experiment, lengths []int) (Series, error) {
	s := Series{Label: base.Name}
	for _, l := range lengths {
		e := base
		e.MsgLen = l
		e.Name = fmt.Sprintf("%s/%dB", base.Name, l)
		r, err := Run(e)
		if err != nil {
			return Series{}, err
		}
		s.Results = append(s.Results, r)
	}
	return s, nil
}

// PrintTable renders series side by side: one row per message length, one
// column pair per series (msgs/sec and KB/s), matching the data behind
// the paper's figure pairs (6+8 and 7+9).
func PrintTable(w io.Writer, title string, series []Series) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-10s", "len(B)")
	for _, s := range series {
		fmt.Fprintf(w, " | %13s msgs/s %10s KB/s", s.Label, "")
	}
	fmt.Fprintln(w)
	if len(series) == 0 || len(series[0].Results) == 0 {
		return
	}
	for i := range series[0].Results {
		fmt.Fprintf(w, "%-10d", series[0].Results[i].MsgLen)
		for _, s := range series {
			r := s.Results[i]
			fmt.Fprintf(w, " | %20.0f %15.0f", r.MsgsPerSec, r.KBytesPerSec)
		}
		fmt.Fprintln(w)
	}
}

// WriteCSV writes series as a CSV file: one row per message length, two
// columns (msgs/sec, KB/s) per series — directly loadable by gnuplot or a
// spreadsheet to re-plot the paper's figures.
func WriteCSV(w io.Writer, series []Series) error {
	if _, err := fmt.Fprint(w, "len_bytes"); err != nil {
		return err
	}
	for _, s := range series {
		if _, err := fmt.Fprintf(w, ",%s_msgs_per_sec,%s_kbytes_per_sec", s.Label, s.Label); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	if len(series) == 0 {
		return nil
	}
	for i := range series[0].Results {
		if _, err := fmt.Fprintf(w, "%d", series[0].Results[i].MsgLen); err != nil {
			return err
		}
		for _, s := range series {
			r := s.Results[i]
			if _, err := fmt.Fprintf(w, ",%.1f,%.1f", r.MsgsPerSec, r.KBytesPerSec); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
