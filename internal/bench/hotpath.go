package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"github.com/totem-rrp/totem/internal/core"
	"github.com/totem-rrp/totem/internal/proto"
	"github.com/totem-rrp/totem/internal/wire"
)

// HotPathMicro is one steady-state micro-measurement, mirroring the
// BenchmarkHotPath* family so `totembench -json` can regenerate the
// allocation budget without the test harness.
type HotPathMicro struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// HotPathPoint is one wall-clock figure measurement: a full simulated
// throughput experiment timed on the host clock, with allocation totals.
// VirtualMsgsPerSec is the paper-facing (machine-independent) rate;
// WallMsgsPerSec is how many totally-ordered deliveries the host actually
// processed per wall-clock second, which is what the zero-allocation work
// speeds up.
type HotPathPoint struct {
	Name              string  `json:"name"`
	MsgLen            int     `json:"msg_len"`
	WallNs            int64   `json:"wall_ns"`
	Allocs            uint64  `json:"allocs"`
	AllocBytes        uint64  `json:"alloc_bytes"`
	VirtualMsgsPerSec float64 `json:"virtual_msgs_per_sec"`
	VirtualKBPerSec   float64 `json:"virtual_kbytes_per_sec"`
	WallMsgsPerSec    float64 `json:"wall_msgs_per_sec"`
}

// HotPathReport is the payload of BENCH_hotpath.json.
type HotPathReport struct {
	Micro   []HotPathMicro `json:"micro"`
	Figure6 []HotPathPoint `json:"figure6_4nodes"`
}

// HotPathMicros measures the allocation budget of the steady-state packet
// path: data-packet encode into a pooled frame, frame pool round-trip,
// and replicator fan-out. All three must report 0 allocs/op.
func HotPathMicros() []HotPathMicro {
	micros := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"encode", benchEncode},
		{"frame-pool", benchFramePool},
		{"encode+fanout", benchEncodeFanout},
	}
	out := make([]HotPathMicro, 0, len(micros))
	for _, m := range micros {
		r := testing.Benchmark(m.fn)
		out = append(out, HotPathMicro{
			Name:        m.name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
	}
	return out
}

func benchEncode(b *testing.B) {
	pkt := &wire.DataPacket{
		Ring:   proto.RingID{Rep: 1, Epoch: 7},
		Sender: 1,
		Chunks: []wire.Chunk{{Flags: wire.ChunkFirst | wire.ChunkLast, Data: make([]byte, 1400)}},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pkt.Seq++
		buf, err := pkt.AppendEncode(wire.GetFrame())
		if err != nil {
			b.Fatal(err)
		}
		wire.PutFrame(buf)
	}
}

func benchFramePool(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wire.PutFrame(wire.GetFrame())
	}
}

func benchEncodeFanout(b *testing.B) {
	var acts proto.Actions
	rep, err := core.New(core.DefaultConfig(2, proto.ReplicationActive), &acts, core.Callbacks{
		Deliver: func(proto.Time, []byte) {},
		Missing: func(uint32) bool { return false },
	})
	if err != nil {
		b.Fatal(err)
	}
	pkt := &wire.DataPacket{
		Ring:   proto.RingID{Rep: 1, Epoch: 3},
		Sender: 1,
		Chunks: []wire.Chunk{{Flags: wire.ChunkFirst | wire.ChunkLast, Data: make([]byte, 1400)}},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pkt.Seq++
		frame, err := pkt.AppendEncode(wire.GetFrame())
		if err != nil {
			b.Fatal(err)
		}
		rep.SendMessage(frame)
		acts.Recycle(acts.Drain())
		wire.PutFrame(frame)
	}
}

// HotPathFigure6Lengths is the message-length subset timed on the wall
// clock (one experiment per length is slow enough that the full
// PaperLengths sweep would dominate totembench).
var HotPathFigure6Lengths = []int{100, 700, 1000, 1400}

// HotPathFigure6 runs the Figure 6 no-replication 4-node experiment for
// each length, timing each run on the host clock and counting host
// allocations across it (setup + warmup + measure).
func HotPathFigure6(lengths []int) ([]HotPathPoint, error) {
	out := make([]HotPathPoint, 0, len(lengths))
	for _, l := range lengths {
		e := Experiment{
			Name:     fmt.Sprintf("no-replication/%dB", l),
			Nodes:    4,
			Networks: 1,
			Style:    proto.ReplicationNone,
			MsgLen:   l,
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		r, err := Run(e)
		wall := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			return nil, err
		}
		msgs := r.MsgsPerSec * r.Measure.Seconds()
		out = append(out, HotPathPoint{
			Name:              e.Name,
			MsgLen:            l,
			WallNs:            wall.Nanoseconds(),
			Allocs:            after.Mallocs - before.Mallocs,
			AllocBytes:        after.TotalAlloc - before.TotalAlloc,
			VirtualMsgsPerSec: r.MsgsPerSec,
			VirtualKBPerSec:   r.KBytesPerSec,
			WallMsgsPerSec:    msgs / wall.Seconds(),
		})
	}
	return out, nil
}

// HotPath runs the full allocation-budget report.
func HotPath() (HotPathReport, error) {
	rep := HotPathReport{Micro: HotPathMicros()}
	points, err := HotPathFigure6(HotPathFigure6Lengths)
	if err != nil {
		return HotPathReport{}, err
	}
	rep.Figure6 = points
	return rep, nil
}

// WriteHotPathJSON renders the report as indented JSON.
func WriteHotPathJSON(w io.Writer, rep HotPathReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// PrintHotPath renders the report for the terminal.
func PrintHotPath(w io.Writer, rep HotPathReport) {
	fmt.Fprintln(w, "hot path allocation budget (steady-state packet path)")
	for _, m := range rep.Micro {
		fmt.Fprintf(w, "  %-14s %10.1f ns/op %6d allocs/op %8d B/op\n",
			m.Name, m.NsPerOp, m.AllocsPerOp, m.BytesPerOp)
	}
	fmt.Fprintln(w, "figure 6 (4 nodes, no replication), wall clock")
	fmt.Fprintf(w, "  %-8s %12s %14s %14s %12s\n", "len(B)", "wall ms", "vmsgs/s", "wall msgs/s", "allocs")
	for _, p := range rep.Figure6 {
		fmt.Fprintf(w, "  %-8d %12.1f %14.0f %14.0f %12d\n",
			p.MsgLen, float64(p.WallNs)/1e6, p.VirtualMsgsPerSec, p.WallMsgsPerSec, p.Allocs)
	}
}
