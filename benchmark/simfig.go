package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/totem-rrp/totem/internal/bench"
	"github.com/totem-rrp/totem/internal/proto"
	"github.com/totem-rrp/totem/internal/sim"
	"github.com/totem-rrp/totem/internal/stack"
)

// simFigure6: bench.Run on the deterministic simulator over the paper's
// Figure 6/8 grid — 4 nodes, {none, active, passive} × five message
// lengths — repeated in whole passes until the window is used up, and one
// passive run with network 0 killed mid-window. The
// virtual numbers repeat bit for bit (a change in them is a behaviour
// change, never noise); the wall clock is pure srp+rrp+wire CPU with no
// kernel and no goroutines.
type simFigure6 struct{}

// simMeasure is each point's virtual measuring time. The issue sketched
// 10 s; one pass of the grid has to fit the driver's window many times
// over, for the fastest of them to be a quiet one.
const simMeasure = 500 * time.Millisecond

type simStyle struct {
	name     string
	networks int
	style    proto.ReplicationStyle
}

var simStyleDefs = []simStyle{
	{"none", 1, proto.ReplicationNone},
	{"active", 2, proto.ReplicationActive},
	{"passive", 2, proto.ReplicationPassive},
}

type simInst struct {
	cfg     config
	traced  bool
	cluster *sim.Cluster // formed in setUp; the fault run uses it
}

// setUp is what it is on the live workloads: build the four nodes and run
// them until every one lists every member — here a simulated passive ring,
// in wall-clock time. The fault run uses it.
func (simFigure6) setUp(cfg config, traced bool) (instance, error) {
	c, err := newSimCluster(cfg.seed)
	if err != nil {
		return nil, err
	}
	return &simInst{cfg: cfg, traced: traced, cluster: c}, nil
}

// pass runs bench.Run once on every cell of the grid.
func (in *simInst) pass(each func(st simStyle, msgLen int, r bench.Result, wall time.Duration)) error {
	for _, st := range simStyleDefs {
		for _, l := range simLengths {
			start := time.Now()
			r, err := bench.Run(bench.Experiment{
				Name: st.name, Nodes: clusterNodes, Networks: st.networks, Style: st.style,
				MsgLen: l, Measure: simMeasure, Seed: in.cfg.seed,
			})
			if err != nil {
				return err
			}
			each(st, l, r, time.Since(start))
		}
	}
	return nil
}

func newSimCluster(seed int64) (*sim.Cluster, error) {
	const backlog = 64
	c, err := sim.NewCluster(sim.Config{
		Nodes: clusterNodes, Networks: clusterNetworks, Style: proto.ReplicationPassive,
		Net: sim.DefaultNetworkParams(), Host: sim.DefaultNodeParams(), Seed: seed,
		TuneSRP: func(_ proto.NodeID, c *stack.Config) { c.SRP.MaxQueued = 4 * backlog },
	})
	if err != nil {
		return nil, err
	}
	for _, id := range c.NodeIDs() {
		c.Node(id).KeepPayloads = false
	}
	c.Start()
	formed := c.RunUntil(func() bool {
		for _, id := range c.NodeIDs() {
			if len(c.Node(id).Stack.SRP().Members()) != clusterNodes {
				return false
			}
		}
		return true
	}, 10*time.Millisecond, 10*time.Second)
	if !formed {
		return nil, fmt.Errorf("simulated ring never formed")
	}
	return c, nil
}

func (in *simInst) close() {}

func (in *simInst) measure(window time.Duration, out *outcome) error {
	out.note("sim-figure6: bench.Run, 4 nodes, {none, active, passive} × %v B, %v virtual per point, simulator seed %d; one pass discarded, then whole passes until the window is used, each point's cost that of its fastest pass",
		simLengths, simMeasure, in.cfg.seed)
	// The warm-up: one pass fills the frame pools and grows the heap.
	if !in.cfg.quick {
		if err := in.pass(func(simStyle, int, bench.Result, time.Duration) {}); err != nil {
			return err
		}
	}
	// cell is one point of the grid: its exact virtual result, and what
	// simulating it cost on each pass.
	type cell struct {
		rate   float64   // virtual msgs/s
		kbytes float64   // virtual KB/s
		msgs   float64   // messages simulated per pass
		bytes  float64   // payload bytes simulated per pass
		wallUs []float64 // wall clock per pass
		cpuUs  []float64 // process CPU per pass
	}
	grid := make(map[string]*cell)
	passes := 0
	m0 := readProc()
	for start := time.Now(); time.Since(start) < window; {
		passes++
		cpu0 := cpuTime()
		err := in.pass(func(st simStyle, l int, r bench.Result, wall time.Duration) {
			out.attempted++
			name := simMetricName(st.name, l)
			c := grid[name]
			if c == nil {
				n := r.MsgsPerSec * simMeasure.Seconds()
				c = &cell{rate: r.MsgsPerSec, kbytes: r.KBytesPerSec, msgs: n, bytes: n * float64(l)}
				grid[name] = c
			} else if c.rate != r.MsgsPerSec || c.kbytes != r.KBytesPerSec {
				out.violate("%s: %v msgs/s on pass %d, %v on an earlier pass — the simulator is not deterministic", name, r.MsgsPerSec, passes, c.rate)
			}
			cpu1 := cpuTime()
			c.wallUs = append(c.wallUs, float64(wall)/1e3)
			c.cpuUs = append(c.cpuUs, float64(cpu1-cpu0)/1e3)
			cpu0 = cpu1
		})
		if err != nil {
			return err
		}
	}
	m1 := readProc()

	// The paper's shapes (§8, Figures 6 and 8).
	kb := func(style string, l int) float64 { return grid[simMetricName(style, l)].kbytes }
	if !(kb("active", 1000) < kb("none", 1000) && kb("none", 1000) < kb("passive", 1000)) {
		out.violate("at 1000 B the paper orders active < none < passive KB/s; got %.0f, %.0f, %.0f",
			kb("active", 1000), kb("none", 1000), kb("passive", 1000))
	}
	if !(kb("none", 700) > kb("none", 1000) && kb("none", 1400) > kb("none", 1000)) {
		out.violate("the packing peaks at 700 and 1400 B are gone: none KB/s %.0f, %.0f, %.0f at 700, 1000, 1400 B",
			kb("none", 700), kb("none", 1000), kb("none", 1400))
	}

	// One pass of the grid at each point's cost on its fastest pass. A grid
	// point is the same computation every time, so whatever makes one pass
	// slower than another is the host (its speed drifts by a fifth within a
	// run, and the median pass drifts with it: 20 % spread over ten runs
	// against 13 % for the fastest). The "latency" of this workload is the
	// wall clock one point takes to simulate.
	var msgs, bytes, wallUs, cpuUs float64
	var points []float64
	for _, c := range grid {
		msgs += c.msgs
		bytes += c.bytes
		wallUs += percentile(c.wallUs, 0)
		cpuUs += percentile(c.cpuUs, 0)
		points = append(points, percentile(c.wallUs, 0))
	}
	out.set("ops_per_s", msgs/wallUs*1e6)
	out.note("goodput: %.6g MB/s of simulated payload", bytes/wallUs)
	out.set("latency_p50_us", median(points))
	out.set("tail.latency_p90_us", percentile(points, 0.9))
	out.set("cpu_us_per_op", cpuUs/msgs)
	out.note("%d passes of %d points, %.0f simulated messages a pass", passes, len(grid), msgs)
	allMsgs := msgs * float64(passes)

	// The exact virtual figures and the fault run, on untraced runs too
	// (printed there; in the result object of traced runs).
	for name, c := range grid {
		out.set(name, c.rate)
	}
	stall, eventsPerS := in.faultRun()
	out.set("sim.fault_stall_virtual_ms", stall)
	out.set("sim.events_per_wall_s", eventsPerS)
	out.attempted++

	if in.traced {
		out.set("sim.allocs_per_msg", float64(m1.mallocs-m0.mallocs)/allMsgs)
		out.set("proc.allocs_per_op", float64(m1.mallocs-m0.mallocs)/allMsgs)
		out.set("proc.gc_pause_ms_total", float64(m1.gcPause-m0.gcPause)/1e6)
		out.set("proc.goroutines_max", float64(runtime.NumGoroutine()))
		wireMicro(out, 1000, false)
		// Nothing of the simulator runs behind a boundary the benchmark
		// owns, so the traced run records no spans.
	}
	return nil
}

// faultRun saturates the set-up's passive ring with 1000 B messages, kills
// network 0 mid-window and returns the longest virtual gap between two
// deliveries at node 1 from the kill on (ms) — what the fault costs the
// application — and the simulator's event rate over the run.
func (in *simInst) faultRun() (stallMs, eventsPerWallS float64) {
	c := in.cluster
	const backlog = 64
	payload := make([]byte, 1000)
	var pump func()
	pump = func() {
		for _, id := range c.NodeIDs() {
			n := c.Node(id)
			for i := 0; i < backlog && n.Stack.Backlog() < backlog; i++ {
				if !c.Submit(id, payload) {
					break
				}
			}
		}
		c.Sim.After(time.Millisecond, pump)
	}
	c.Sim.After(0, pump)

	killAt := c.Sim.Now() + 600*time.Millisecond
	end := c.Sim.Now() + 1300*time.Millisecond
	probe := c.Node(c.NodeIDs()[0])
	last := proto.Time(-1)
	var worst proto.Time
	probe.OnDeliver = func(proto.Delivery) {
		now := c.Sim.Now()
		if now >= killAt {
			if last < killAt {
				last = killAt
			}
			worst = max(worst, now-last)
		}
		last = now
	}
	c.Sim.At(killAt, func() { c.KillNetwork(0) })
	done := false
	c.Sim.At(end, func() { done = true })
	events := 0
	start := time.Now()
	for !done && c.Sim.Step() {
		events++
	}
	wall := time.Since(start)
	probe.OnDeliver = nil
	return float64(worst) / 1e6, float64(events) / wall.Seconds()
}
