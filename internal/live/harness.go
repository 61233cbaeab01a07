package live

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	totem "github.com/totem-rrp/totem"
	"github.com/totem-rrp/totem/internal/proto"
	"github.com/totem-rrp/totem/internal/stack"
	"github.com/totem-rrp/totem/internal/torture"
	"github.com/totem-rrp/totem/internal/trace"
	"github.com/totem-rrp/totem/internal/transport"
)

// Options tunes one live execution of a torture program.
type Options struct {
	// Transport selects the medium: "mem" (in-process hub, default) or
	// "udp" (loopback sockets, one per node per network).
	Transport string
	// WirePath selects the UDP kernel driver ("auto", "portable",
	// "batch"); empty means auto. Ignored by the mem transport. The
	// conformance sweep runs the same programs on both drivers.
	WirePath string
	// TimeScale compresses the program's virtual-time phases onto the wall
	// clock: wall = virtual × TimeScale. The protocol timers are tuned
	// (liveTune) so rings form and heal well inside the scaled phases.
	// Default 0.3.
	TimeScale float64
	// Netem is the baseline impairment; nil applies
	// DefaultNetemParams(program seed). Point at a zero NetemParams to run
	// unimpaired.
	Netem *NetemParams
	// RecordDeliveries retains per-node delivery orders for the
	// differential mode.
	RecordDeliveries bool
	// TraceCap bounds the shared trace ring; 0 means 512.
	TraceCap int
	// SettleTimeout bounds the post-run convergence wait (wall clock);
	// 0 means 5s.
	SettleTimeout time.Duration
	// ClockSkew, when non-zero, scales every node's protocol timers by a
	// seeded per-node factor drawn from [1-ClockSkew, 1+ClockSkew] — the
	// live analogue of the simulator's timer-skew fault. Real deployments
	// never have perfectly matched clocks; a skew the monitors cannot
	// absorb shows up as spurious convictions.
	ClockSkew float64
}

// liveTune compresses the protocol timers for scaled wall-clock runs: the
// same shape TortureTune gives the simulator, shrunk so that ring
// formation, token-loss recovery and probation-based readmission all fit
// inside a program's scaled phases. Values stay a comfortable multiple of
// loopback RTT and Go timer granularity so runs are not flaky on slow CI
// machines.
func liveTune(o *totem.Options) {
	o.SRP.TokenLossTimeout = 50 * time.Millisecond
	o.SRP.TokenRetransmitInterval = 5 * time.Millisecond
	o.SRP.JoinInterval = 25 * time.Millisecond
	o.SRP.ConsensusTimeout = 120 * time.Millisecond
	o.SRP.CommitRetransmitInterval = 20 * time.Millisecond
	o.SRP.MergeDetectInterval = 80 * time.Millisecond
	o.SRP.IdleTokenHold = time.Millisecond
	o.RRP.TokenHold = 5 * time.Millisecond
	o.RRP.DecayInterval = 100 * time.Millisecond
	o.RRP.ProbationWindows = 2
	o.RRP.MaxProbation = 8
	o.RRP.FlapWindow = time.Second
}

// skewTune scales one node's protocol timers by factor f — its private
// clock rate. Only durations are scaled; counters and thresholds are
// clock-free.
func skewTune(o *totem.Options, f float64) {
	scale := func(d *time.Duration) { *d = time.Duration(float64(*d) * f) }
	scale(&o.SRP.TokenLossTimeout)
	scale(&o.SRP.TokenRetransmitInterval)
	scale(&o.SRP.JoinInterval)
	scale(&o.SRP.ConsensusTimeout)
	scale(&o.SRP.CommitRetransmitInterval)
	scale(&o.SRP.MergeDetectInterval)
	scale(&o.SRP.IdleTokenHold)
	scale(&o.RRP.TokenTimeout)
	scale(&o.RRP.TokenHold)
	scale(&o.RRP.DecayInterval)
	scale(&o.RRP.FlapWindow)
}

// liveSlowNetCap bounds the wall-clock latency a slow-net fault may force
// on the live harness: at worst-case back-to-back token rotation (~50µs on
// the mem transport) it keeps the in-flight copy count a comfortable
// margin under TokenDiffThreshold, so a merely-slow network stays within
// the monitor tolerance the slow-vs-dead invariant asserts.
const liveSlowNetCap = 150 * time.Microsecond

// liveNode is one slot in the harness: the node (and its transports) are
// replaced across crash/restart, the slot persists.
type liveNode struct {
	id proto.NodeID

	mu      sync.Mutex
	n       *totem.Node
	tr      transport.Transport // what n runs on; replaced with it
	crashed bool
	// epoch is the highest ring epoch observed before the last crash; the
	// next incarnation carries it forward (Totem's stable-storage ring
	// sequence number).
	epoch uint32
}

type harness struct {
	p     torture.Program
	style proto.ReplicationStyle
	opt   Options
	scale float64

	nm     *Netem
	ch     *torture.Checker
	tracer trace.Tracer
	ring   *trace.Ring
	epoch  time.Time

	fab   *fabric
	nodes map[proto.NodeID]*liveNode
	order []proto.NodeID
	skew  map[proto.NodeID]float64 // per-node clock rate; nil = all 1.0

	delivered atomic.Uint64
	stopped   atomic.Bool
}

// Execute runs one torture program against real totem.Nodes on the
// goroutine runtime and returns the same Result shape as the virtual-time
// runner. The program is interpreted identically — same ops, same load
// schedule, same payloads — except that timer-skew is a no-op (real
// clocks cannot be scaled) and timing is wall clock compressed by
// Options.TimeScale.
func Execute(p torture.Program, opt Options) (*torture.Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	style, err := torture.StyleByName(p.Style)
	if err != nil {
		return nil, err
	}
	if opt.Transport == "" {
		opt.Transport = "mem"
	}
	if opt.TimeScale <= 0 {
		opt.TimeScale = 0.3
	}
	if opt.SettleTimeout <= 0 {
		opt.SettleTimeout = 5 * time.Second
	}
	traceCap := opt.TraceCap
	if traceCap <= 0 {
		traceCap = 512
	}
	np := DefaultNetemParams(p.Seed)
	if opt.Netem != nil {
		np = *opt.Netem
	}

	h := &harness{
		p:     p,
		style: style,
		opt:   opt,
		scale: opt.TimeScale,
		nm:    NewNetem(p.Networks, np),
		ring:  trace.NewRing(traceCap),
		nodes: make(map[proto.NodeID]*liveNode),
	}
	// The live monitor bound uses the default conviction thresholds, same
	// as the simulator (neither tune changes them).
	h.ch = torture.NewChecker(style, torture.MonitorBoundFor(stack.DefaultConfig(1, p.Networks, style)))
	h.ch.SetRecordDeliveries(opt.RecordDeliveries)
	h.ch.SetSlowOnly(torture.SlowOnlyNets(p))
	h.ch.SetRecoveryBudget(torture.RecoveryBudget(p))
	if opt.ClockSkew > 0 {
		// One seeded draw per node, in slot order, so the same program and
		// skew setting always yield the same per-node clock rates.
		rng := rand.New(rand.NewSource(p.Seed ^ 0x5eed))
		h.skew = make(map[proto.NodeID]float64, p.Nodes)
		for i := 1; i <= p.Nodes; i++ {
			h.skew[proto.NodeID(i)] = 1 + (rng.Float64()*2-1)*opt.ClockSkew
		}
	}
	h.tracer = trace.Multi{h.ch, h.ring}
	h.fab, err = newFabric(opt.Transport, p.Nodes, p.Networks, opt.WirePath, h.nm)
	if err != nil {
		return nil, err
	}
	defer h.fab.close()
	h.order = h.fab.order
	for _, id := range h.order {
		h.nodes[id] = &liveNode{id: id}
	}
	for _, id := range h.order {
		if err := h.startNode(h.nodes[id]); err != nil {
			h.teardown()
			return nil, err
		}
	}
	h.epoch = time.Now()
	h.ch.SetNow(func() proto.Time { return proto.Time(time.Since(h.epoch)) })

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); h.runSchedule() }()
	for i, id := range h.order {
		wg.Add(1)
		go func(i int, id proto.NodeID) { defer wg.Done(); h.runLoad(i, id) }(i, id)
	}
	wg.Wait()

	// Bounded convergence grace, polling the same Settled fixed point the
	// simulator uses.
	deadline := time.Now().Add(opt.SettleTimeout)
	var end *torture.EndState
	for {
		end = h.endState()
		if end.Settled() || h.ch.Violation() != nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Stop every node before the end-of-run checks so the checker's
	// counters are quiescent (the runtime has no yield point between
	// recording a token reception and accounting for it, so once the loops
	// exit the ledgers are final).
	h.teardown()
	if h.ch.Violation() == nil {
		h.ch.Finish(end)
	}

	res := &torture.Result{
		Program:   p,
		Violation: h.ch.Violation(),
		Delivered: h.delivered.Load(),
		End:       time.Since(h.epoch),
	}
	if end != nil {
		res.FinalMembers = end.FinalMembers()
	}
	if opt.RecordDeliveries {
		res.Deliveries = h.ch.DeliverySeqs()
	}
	for _, e := range h.ring.Events(nil) {
		res.TraceTail = append(res.TraceTail, e.String())
	}
	return res, nil
}

// startNode boots a totem.Node on the slot's impaired end of the fabric;
// epoch carries the pre-crash ring epoch into the new incarnation.
func (h *harness) startNode(ln *liveNode) error {
	tr, err := h.fab.attach(ln.id)
	if err != nil {
		return err
	}
	id := ln.id
	cfg := totem.Config{
		ID:          id,
		Networks:    h.p.Networks,
		Replication: h.style,
		K:           h.p.K,
		Tune: func(o *totem.Options) {
			liveTune(o)
			if f, ok := h.skew[id]; ok && f != 1 {
				skewTune(o, f)
			}
			if ln.epoch > o.SRP.InitialEpoch {
				o.SRP.InitialEpoch = ln.epoch
			}
			o.Tracer = h.tracer
			o.DeliveryTap = func(d totem.Delivery) {
				h.delivered.Add(1)
				h.ch.OnDeliver(id, d)
			}
		},
	}
	n, err := totem.NewNode(cfg, tr)
	if err != nil {
		tr.Close()
		return fmt.Errorf("live: node %v: %w", id, err)
	}
	ln.mu.Lock()
	ln.n, ln.tr, ln.crashed = n, tr, false
	ln.mu.Unlock()
	return nil
}

// crash fail-stops a node: the protocol stack dies with its transport.
// The highest observed ring epoch is read first so the next incarnation
// can never mint a RingID this one already used.
func (h *harness) crash(id proto.NodeID) {
	ln := h.nodes[id]
	ln.mu.Lock()
	if ln.crashed || ln.n == nil {
		ln.mu.Unlock()
		return
	}
	n, tr := ln.n, ln.tr
	ln.crashed = true
	ln.n, ln.tr = nil, nil
	ln.mu.Unlock()
	h.ch.NoteCrash(id)
	if e := n.MaxEpoch(); e > ln.epoch {
		ln.epoch = e
	}
	n.Close()
	tr.Close()
}

// restart reboots a crashed node on a fresh transport (on UDP: new ports,
// every other node's peer table updated).
func (h *harness) restart(id proto.NodeID) {
	if h.stopped.Load() {
		return
	}
	ln := h.nodes[id]
	ln.mu.Lock()
	crashed := ln.crashed
	ln.mu.Unlock()
	if !crashed {
		return
	}
	if err := h.fab.reopen(id); err != nil {
		return
	}
	h.startNode(ln) //nolint:errcheck
}

// runSchedule fires the program's fault ops (scaled onto the wall clock)
// plus the unconditional end-of-window heal, in time order, from one
// goroutine. Timer-skew is a live no-op: real clocks cannot be scaled
// per-node from userspace.
func (h *harness) runSchedule() {
	type event struct {
		at time.Duration // virtual
		fn func()
	}
	var evs []event
	add := func(at time.Duration, fn func()) { evs = append(evs, event{at, fn}) }
	p := h.p
	for _, op := range p.Ops {
		op := op
		at := p.Warmup + op.At
		over := at + op.Dur
		switch op.Kind {
		case torture.OpLossBurst:
			add(at, func() { h.nm.SetLoss(op.Net, op.P) })
			add(over, func() { h.nm.SetLoss(op.Net, 0) })
		case torture.OpNetDown:
			add(at, func() { h.nm.KillNetwork(op.Net) })
			add(over, func() { h.nm.ReviveNetwork(op.Net) })
		case torture.OpPartition:
			add(at, func() { h.nm.Partition(op.Net, torture.PartitionGroups(p.Nodes, op.Part)) })
			add(over, func() { h.nm.Partition(op.Net, nil) })
		case torture.OpTokenLoss:
			add(at, func() {
				for i := 0; i < p.Networks; i++ {
					h.nm.KillNetwork(i)
				}
			})
			add(over, func() {
				for i := 0; i < p.Networks; i++ {
					h.nm.ReviveNetwork(i)
				}
			})
		case torture.OpBlockSend:
			add(at, func() { h.nm.BlockSend(op.Node, op.Net, true) })
			add(over, func() { h.nm.BlockSend(op.Node, op.Net, false) })
		case torture.OpBlockRecv:
			add(at, func() { h.nm.BlockRecv(op.Node, op.Net, true) })
			add(over, func() { h.nm.BlockRecv(op.Node, op.Net, false) })
		case torture.OpTimerSkew, torture.OpClockDrift:
			// no-op live: real clocks cannot be scaled per node from
			// userspace (Options.ClockSkew covers static rate mismatch)
		case torture.OpCrash:
			add(at, func() { h.crash(op.Node) })
			add(over, func() { h.restart(op.Node) })
		case torture.OpOneWay:
			add(at, func() { h.nm.BlockPair(op.Net, op.Node, op.Peer, true) })
			add(over, func() { h.nm.BlockPair(op.Net, op.Node, op.Peer, false) })
		case torture.OpCongestion:
			add(at, func() { h.nm.SetCongestion(op.Net, op.P) })
			add(over, func() { h.nm.SetCongestion(op.Net, 0) })
		case torture.OpDupStorm:
			add(at, func() { h.nm.SetDupStorm(op.Net, op.P) })
			add(over, func() { h.nm.SetDupStorm(op.Net, 0) })
		case torture.OpSlowNet:
			// The program's latency is virtual time; the wall-clock floor
			// scales with everything else — but is capped so the fault stays
			// inside the monitors' tolerance at live speeds. The ring rotates
			// in tens of microseconds on the mem transport, so an uncapped
			// delay would put more token copies in flight than
			// TokenDiffThreshold allows, and convicting that is correct
			// behavior, not a slow-vs-dead misdiagnosis.
			lat := time.Duration(float64(op.Lat) * h.scale)
			if lat > liveSlowNetCap {
				lat = liveSlowNetCap
			}
			add(at, func() { h.nm.SetSlowNet(op.Net, lat) })
			add(over, func() { h.nm.SetSlowNet(op.Net, 0) })
		case torture.OpCorrupt:
			add(at, func() { h.corrupt(op) })
		}
	}
	add(p.Warmup+p.FaultWindow, func() { h.nm.HealAll() })
	add(p.Duration(), func() {}) // hold the schedule open to the horizon
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	for _, ev := range evs {
		h.sleepUntil(ev.at)
		ev.fn()
	}
}

// corrupt scrambles one slice of the target node's protocol state through
// the public fault-injection hook — the same corruption, same seed, as the
// simulator's runner — and arms the checker's bounded-recovery invariant.
func (h *harness) corrupt(op torture.Op) {
	ln := h.nodes[op.Node]
	ln.mu.Lock()
	n := ln.n
	ln.mu.Unlock()
	if n == nil {
		return
	}
	h.ch.NoteCorrupt(op.Node)
	n.Corrupt(op.Sub, torture.CorruptSeed(h.p, op))
}

// sleepUntil blocks until the scaled wall-clock image of virtual time t.
func (h *harness) sleepUntil(t time.Duration) {
	wall := h.epoch.Add(time.Duration(float64(t) * h.scale))
	if d := time.Until(wall); d > 0 {
		time.Sleep(d)
	}
}

// runLoad replays the program's submission schedule for one node: same
// offsets, same cutoff, same payload bytes as the simulator, scaled onto
// the wall clock.
func (h *harness) runLoad(idx int, id proto.NodeID) {
	p := h.p
	offset := time.Duration(idx) * p.LoadInterval / time.Duration(len(h.order))
	cutoff := p.LoadCutoff()
	seqNo := 0
	for t := p.Warmup + offset; t < cutoff; t += p.LoadInterval {
		h.sleepUntil(t)
		payload := torture.LoadPayload(p, id, seqNo)
		seqNo++
		h.submit(id, payload)
	}
}

// submit sends one payload on the node's current incarnation, briefly
// retrying backpressure (a real application would too); the checker is
// told whether the stack accepted it.
func (h *harness) submit(id proto.NodeID, payload []byte) {
	ln := h.nodes[id]
	ln.mu.Lock()
	n := ln.n
	ln.mu.Unlock()
	if n == nil {
		h.ch.NoteSubmit(id, payload, false)
		return
	}
	err := n.Send(payload)
	for i := 0; err == totem.ErrBackpressure && i < 3; i++ {
		time.Sleep(2 * time.Millisecond)
		err = n.Send(payload)
	}
	h.ch.NoteSubmit(id, payload, err == nil)
}

// endState snapshots every node through the public inspection API into
// the checker's backend-neutral form.
func (h *harness) endState() *torture.EndState {
	end := &torture.EndState{}
	for _, id := range h.order {
		ln := h.nodes[id]
		ln.mu.Lock()
		n, crashed := ln.n, ln.crashed
		ln.mu.Unlock()
		if crashed || n == nil {
			end.Nodes = append(end.Nodes, torture.NodeEnd{ID: id, Crashed: true})
			continue
		}
		ring, members := n.Ring()
		end.Nodes = append(end.Nodes, torture.NodeEnd{
			ID:          id,
			Operational: n.Operational(),
			State:       n.StateName(),
			Ring:        ring,
			Members:     members,
			Backlog:     n.Backlog(),
			Faulty:      n.NetworkFaults(),
		})
	}
	return end
}

// teardown closes every node and transport; idempotent.
func (h *harness) teardown() {
	h.stopped.Store(true)
	for _, id := range h.order {
		ln := h.nodes[id]
		ln.mu.Lock()
		n, tr := ln.n, ln.tr
		ln.n, ln.tr = nil, nil
		ln.mu.Unlock()
		if n != nil {
			n.Close()
		}
		if tr != nil {
			tr.Close()
		}
	}
}
