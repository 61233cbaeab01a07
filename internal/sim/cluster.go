package sim

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/totem-rrp/totem/internal/proto"
	"github.com/totem-rrp/totem/internal/stack"
	"github.com/totem-rrp/totem/internal/trace"
	"github.com/totem-rrp/totem/internal/wire"
)

// NetworkParams models one broadcast LAN.
type NetworkParams struct {
	// BandwidthBits is the link rate in bits/second (the whole broadcast
	// medium is serialised, as on a hub or a switch flooding broadcast
	// frames). Zero means infinitely fast.
	BandwidthBits int64
	// Latency is the propagation + stack delay per hop.
	Latency time.Duration
	// LossProb drops each (frame, receiver) pair independently.
	LossProb float64
}

// DefaultNetworkParams models the paper's 100 Mbit/s Ethernet.
func DefaultNetworkParams() NetworkParams {
	return NetworkParams{
		BandwidthBits: 100_000_000,
		Latency:       60 * time.Microsecond,
	}
}

// NodeParams models one host's packet-processing costs (DESIGN.md §6).
type NodeParams struct {
	// SendCost is CPU time per packet handed to one network's stack.
	SendCost time.Duration
	// RecvCost is CPU time per packet received from any network.
	RecvCost time.Duration
	// DeliverCost is CPU time per message delivered to the application
	// (ordering, liveness bookkeeping).
	DeliverCost time.Duration
}

// DefaultNodeParams is calibrated so the simulated baseline reproduces the
// paper's headline (~9000+ 1KB msgs/sec ≈ 90% of a 100 Mbit/s Ethernet,
// network-bound) while passive replication on two networks goes CPU-bound
// (paper §8).
func DefaultNodeParams() NodeParams {
	return NodeParams{
		SendCost:    28 * time.Microsecond,
		RecvCost:    30 * time.Microsecond,
		DeliverCost: 40 * time.Microsecond,
	}
}

// wireSlack approximates the header bytes outside the encoded Totem packet
// (Ethernet, IP, UDP), chosen so a full 1424-byte-payload data packet
// occupies exactly one maximum 1518-byte frame.
const wireSlack = wire.FrameOverhead - 22

// frameTime returns the serialisation delay of an encoded packet.
func (p NetworkParams) frameTime(encodedLen int) time.Duration {
	if p.BandwidthBits <= 0 {
		return 0
	}
	bits := int64(encodedLen+wireSlack) * 8
	return time.Duration(bits * int64(time.Second) / p.BandwidthBits)
}

// congestionWindow is the transmit-queue delay at which congestion-
// correlated loss reaches its configured rate: a frame that waited this
// long (or longer) for the medium is dropped with the full probability, an
// idle medium drops nothing.
const congestionWindow = 500 * time.Microsecond

// network is one simulated LAN.
type network struct {
	idx       int
	params    NetworkParams
	busyUntil proto.Time
	down      bool
	// groups partitions the network: delivery only happens within a
	// group. nil means fully connected.
	groups map[proto.NodeID]int
	// blockedPair blocks directed links ({from, to} keys): gray one-way
	// faults, independent of the reverse direction.
	blockedPair map[[2]proto.NodeID]bool
	// congestion scales per-frame loss by the transmit queueing delay.
	congestion float64
	// dupProb re-emits each frame once more (a babbling switch).
	dupProb float64
	// slowLat, when non-zero, overrides params.Latency: slow, not down.
	slowLat time.Duration
	rng     *rand.Rand
}

func (n *network) deliverable(from, to proto.NodeID) bool {
	if n.down {
		return false
	}
	if n.groups != nil && n.groups[from] != n.groups[to] {
		return false
	}
	if n.blockedPair != nil && n.blockedPair[[2]proto.NodeID{from, to}] {
		return false
	}
	if n.params.LossProb > 0 && n.rng.Float64() < n.params.LossProb {
		return false
	}
	return true
}

// Node is one simulated host: a protocol stack plus its CPU and observed
// application events.
type Node struct {
	ID      proto.NodeID
	Stack   *stack.Node
	cluster *Cluster

	cpuBusy  proto.Time
	timers   map[proto.TimerID]uint64 // generation per timer
	timerGen uint64
	crashed  bool
	// incarnation counts restarts; every scheduled closure captures it so
	// work queued for a previous life of the node (packet deliveries, CPU
	// slots, timers) can never reach the stack of a later one.
	incarnation uint64
	// timerSkew scales timer durations (a drifting local clock); 0 or 1
	// means nominal.
	timerSkew float64

	blockedSend map[int]bool
	blockedRecv map[int]bool

	// Observed application-facing events.
	Delivered []proto.Delivery
	Faults    []proto.FaultReport
	Cleared   []proto.ClearReport
	Configs   []proto.ConfigChange

	// Optional hooks invoked as events happen.
	OnDeliver func(proto.Delivery)
	OnFault   func(proto.FaultReport)
	OnCleared func(proto.ClearReport)
	OnConfig  func(proto.ConfigChange)

	// KeepPayloads controls whether delivered payload bytes are retained
	// (tests) or dropped to spare memory (benchmarks keep counters only).
	KeepPayloads   bool
	DeliveredCount uint64
	DeliveredBytes uint64
}

// Config configures a cluster.
type Config struct {
	// Nodes is the number of ring members; they get IDs 1..Nodes.
	Nodes int
	// Networks is N.
	Networks int
	// Style selects the replication style; K applies to active-passive.
	Style proto.ReplicationStyle
	K     int

	Net  NetworkParams
	Host NodeParams

	// Seed drives all randomness (loss); identical seeds replay exactly.
	Seed int64

	// TuneSRP and TuneRRP optionally adjust the per-layer configs.
	TuneSRP func(id proto.NodeID, c *stack.Config)

	// Trace, if non-nil, receives a structured event stream (packet
	// tx/rx, deliveries, faults, configuration changes).
	Trace trace.Tracer
}

// Cluster wires Nodes × Networks together over a Simulator.
type Cluster struct {
	Sim   *Simulator
	cfg   Config
	nets  []*network
	nodes map[proto.NodeID]*Node
	order []proto.NodeID

	// tracing is false when cfg.Trace is Discard, letting the hot path
	// skip event construction entirely.
	tracing bool

	// Pooled-frame tracking (see trackFrame). frameScratch dedupes the
	// frames of the action batch currently executing (one data frame fans
	// out as several SendPacket actions); frameDepth counts nested execute
	// calls (an OnDeliver hook may Submit) so the scratch is only swept at
	// the outermost batch boundary. refFree recycles the tracker objects.
	frameScratch []*frameRef
	frameDepth   int
	refFree      []*frameRef
}

// frameRef counts the scheduled deliveries of one pooled data frame; the
// frame rejoins the wire pool when the last receiver has processed it. A
// delivery whose closure never runs (receiver crashed after scheduling)
// strands its reference and the frame falls to the GC instead — safe,
// merely unpooled.
type frameRef struct {
	data []byte
	refs int
}

// trackFrame returns the batch-scoped tracker for a pooled data frame, or
// nil when data is not poolable (control packets, unpooled buffers).
func (c *Cluster) trackFrame(data []byte) *frameRef {
	if len(data) == 0 || cap(data) != wire.FrameCap {
		return nil
	}
	if k, err := wire.PeekKind(data); err != nil || k != wire.KindData {
		return nil
	}
	p := &data[0]
	for _, r := range c.frameScratch {
		if &r.data[0] == p {
			return r
		}
	}
	var r *frameRef
	if n := len(c.refFree); n > 0 {
		r = c.refFree[n-1]
		c.refFree = c.refFree[:n-1]
		r.data, r.refs = data, 0
	} else {
		r = &frameRef{data: data}
	}
	c.frameScratch = append(c.frameScratch, r)
	return r
}

// unref releases one scheduled delivery's hold on a frame.
func (c *Cluster) unref(r *frameRef) {
	if r == nil {
		return
	}
	r.refs--
	if r.refs == 0 {
		wire.PutFrame(r.data)
		r.data = nil
		c.refFree = append(c.refFree, r)
	}
}

// sweepFrames runs at the outermost batch boundary: frames none of whose
// sends got scheduled (all receivers blocked, lost or crashed) have no
// pending release, so they rejoin the pool here.
func (c *Cluster) sweepFrames() {
	for i, r := range c.frameScratch {
		if r.refs == 0 && r.data != nil {
			wire.PutFrame(r.data)
			r.data = nil
			c.refFree = append(c.refFree, r)
		}
		c.frameScratch[i] = nil
	}
	c.frameScratch = c.frameScratch[:0]
}

// NewCluster builds (but does not start) a cluster.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("sim: need at least one node, have %d", cfg.Nodes)
	}
	if cfg.Networks < 1 {
		return nil, fmt.Errorf("sim: need at least one network, have %d", cfg.Networks)
	}
	if cfg.Trace == nil {
		cfg.Trace = trace.Discard
	}
	c := &Cluster{
		Sim:     NewSimulator(),
		cfg:     cfg,
		nodes:   make(map[proto.NodeID]*Node, cfg.Nodes),
		tracing: cfg.Trace != trace.Discard,
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < cfg.Networks; i++ {
		c.nets = append(c.nets, &network{
			idx:    i,
			params: cfg.Net,
			rng:    rand.New(rand.NewSource(rng.Int63())),
		})
	}
	for i := 1; i <= cfg.Nodes; i++ {
		id := proto.NodeID(i)
		st, err := c.newStack(id, 0)
		if err != nil {
			return nil, err
		}
		n := &Node{
			ID:           id,
			Stack:        st,
			cluster:      c,
			timers:       make(map[proto.TimerID]uint64),
			blockedSend:  make(map[int]bool),
			blockedRecv:  make(map[int]bool),
			KeepPayloads: true,
		}
		c.nodes[id] = n
		c.order = append(c.order, id)
	}
	return c, nil
}

// newStack builds one node's protocol stack, applying the cluster tuning
// hooks and installing the trace probe. initialEpoch seeds the SRP's
// highest-known ring epoch (models Totem's stable-storage ring sequence
// number); Restart passes the pre-crash value so a reborn node never mints
// a RingID its former incarnation already used.
func (c *Cluster) newStack(id proto.NodeID, initialEpoch uint32) (*stack.Node, error) {
	scfg := stack.DefaultConfig(id, c.cfg.Networks, c.cfg.Style)
	if c.cfg.K != 0 {
		scfg.RRP.K = c.cfg.K
	}
	if c.cfg.TuneSRP != nil {
		c.cfg.TuneSRP(id, &scfg)
	}
	if initialEpoch > scfg.SRP.InitialEpoch {
		scfg.SRP.InitialEpoch = initialEpoch
	}
	st, err := stack.New(scfg)
	if err != nil {
		return nil, fmt.Errorf("sim: node %v: %w", id, err)
	}
	if c.tracing {
		// Surface the machines' own probe events in the trace stream,
		// stamped with virtual time at the sink.
		st.SetProbe(func(e proto.ProbeEvent) {
			c.cfg.Trace.Record(trace.Event{
				At: c.Sim.Now(), Node: id, Kind: trace.Machine,
				Code: e.Code, Network: e.Network, A: e.A, B: e.B, C: e.C,
			})
		})
	}
	return st, nil
}

// Node returns the simulated node with the given ID.
func (c *Cluster) Node(id proto.NodeID) *Node { return c.nodes[id] }

// NodeIDs returns all node IDs in ascending order.
func (c *Cluster) NodeIDs() []proto.NodeID {
	return append([]proto.NodeID(nil), c.order...)
}

// Start boots every node, staggered slightly so join storms interleave
// realistically.
func (c *Cluster) Start() {
	for i, id := range c.order {
		n := c.nodes[id]
		c.Sim.At(proto.Time(i)*time.Millisecond, func() {
			n.execute(c.Sim.Now(), n.Stack.Start(c.Sim.Now()))
		})
	}
}

// Run advances virtual time.
func (c *Cluster) Run(d time.Duration) {
	c.Sim.Run(c.Sim.Now() + d)
}

// RunUntil advances time in step increments until cond holds or the
// budget elapses; it reports whether cond held.
func (c *Cluster) RunUntil(cond func() bool, step, budget time.Duration) bool {
	deadline := c.Sim.Now() + budget
	for c.Sim.Now() < deadline {
		if cond() {
			return true
		}
		c.Sim.Run(c.Sim.Now() + step)
	}
	return cond()
}

// Submit enqueues an application message at the current virtual time.
func (c *Cluster) Submit(id proto.NodeID, payload []byte) bool {
	n := c.nodes[id]
	if n == nil || n.crashed {
		return false
	}
	ok, acts := n.Stack.Submit(c.Sim.Now(), payload)
	n.execute(c.Sim.Now(), acts)
	return ok
}

// --- fault injection ---

// KillNetwork makes network i drop everything until revived.
func (c *Cluster) KillNetwork(i int) { c.nets[i].down = true }

// ReviveNetwork restores network i.
func (c *Cluster) ReviveNetwork(i int) { c.nets[i].down = false }

// SetLoss sets the random loss probability of network i.
func (c *Cluster) SetLoss(i int, p float64) { c.nets[i].params.LossProb = p }

// Partition splits network i into groups: traffic flows only within a
// group. Pass nil to heal.
func (c *Cluster) Partition(i int, groups map[proto.NodeID]int) {
	c.nets[i].groups = groups
}

// BlockSend stops node id from sending on network net (paper §3 fault
// type: "a node A is unable to send any data via a particular network").
func (c *Cluster) BlockSend(id proto.NodeID, net int, blocked bool) {
	c.nodes[id].blockedSend[net] = blocked
}

// BlockRecv stops node id from receiving on network net.
func (c *Cluster) BlockRecv(id proto.NodeID, net int, blocked bool) {
	c.nodes[id].blockedRecv[net] = blocked
}

// Crash stops a node dead: no more packets, timers or submissions.
func (c *Cluster) Crash(id proto.NodeID) { c.nodes[id].crashed = true }

// Crashed reports whether the node has been crashed. Its Stack remains
// readable but is frozen at its pre-crash state.
func (n *Node) Crashed() bool { return n.crashed }

// Restart reboots a crashed node with a completely fresh protocol stack:
// no ring state, empty queues, all timers gone — only the highest ring
// epoch carries over (Totem's stable-storage ring sequence number), so the
// new incarnation can never mint a RingID the old one already used. Work
// scheduled for the previous incarnation is fenced off by the incarnation
// counter. Observed event slices (Delivered, Faults, …) are retained
// across the restart; checkers that care can record the restart time.
func (c *Cluster) Restart(id proto.NodeID) error {
	n := c.nodes[id]
	if n == nil {
		return fmt.Errorf("sim: unknown node %v", id)
	}
	if !n.crashed {
		return fmt.Errorf("sim: node %v is not crashed", id)
	}
	st, err := c.newStack(id, n.Stack.SRP().MaxEpoch())
	if err != nil {
		return err
	}
	n.Stack = st
	n.incarnation++
	n.crashed = false
	n.cpuBusy = 0
	n.timers = make(map[proto.TimerID]uint64)
	n.execute(c.Sim.Now(), st.Start(c.Sim.Now()))
	return nil
}

// Incarnation returns how many times the node has been restarted.
func (n *Node) Incarnation() uint64 { return n.incarnation }

// SetTimerSkew scales node id's timer durations by factor, modelling a
// drifting local clock: factor > 1 fires timers late (a slow clock),
// factor < 1 early. It applies to timers armed after the call; 1 (or 0)
// restores nominal timing. factor must not be negative.
func (c *Cluster) SetTimerSkew(id proto.NodeID, factor float64) {
	c.nodes[id].timerSkew = factor
}

// BlockPair blocks the directed link from -> to on network net: a gray
// unidirectional fault, the reverse direction keeps flowing.
func (c *Cluster) BlockPair(net int, from, to proto.NodeID, blocked bool) {
	nw := c.nets[net]
	if nw.blockedPair == nil {
		nw.blockedPair = make(map[[2]proto.NodeID]bool)
	}
	if blocked {
		nw.blockedPair[[2]proto.NodeID{from, to}] = true
	} else {
		delete(nw.blockedPair, [2]proto.NodeID{from, to})
	}
}

// SetCongestion makes network net's loss correlate with its own load: each
// frame is dropped with probability p scaled by how long it waited for the
// medium (full weight at one congestionWindow of backlog). Zero heals.
func (c *Cluster) SetCongestion(net int, p float64) { c.nets[net].congestion = p }

// SetDupStorm makes network net duplicate each transmitted frame with
// probability p (a babbling switch). Zero heals.
func (c *Cluster) SetDupStorm(net int, p float64) { c.nets[net].dupProb = p }

// SetSlowNet overrides network net's latency: the network is slow, not
// down. Zero restores the configured latency.
func (c *Cluster) SetSlowNet(net int, lat time.Duration) { c.nets[net].slowLat = lat }

// Corrupt scrambles one slice of node id's protocol state in place — the
// arbitrary-initial-state recovery mode (see stack.Node.Corrupt for the
// sub vocabulary). It reports whether the injection ran (the node must be
// alive); the corruption's own actions (forged hold timers, probes) are
// executed like any handler's.
func (c *Cluster) Corrupt(id proto.NodeID, sub string, seed int64) bool {
	n := c.nodes[id]
	if n == nil || n.crashed {
		return false
	}
	n.execute(c.Sim.Now(), n.Stack.Corrupt(c.Sim.Now(), sub, seed))
	return true
}

// --- node internals ---

// queue schedules a node event at time at: it reaches the node's CPU
// then, under the node's current incarnation.
func (n *Node) queue(at proto.Time, e *event) {
	e.node, e.inc = n, n.incarnation
	n.cluster.Sim.push(at, e)
}

// run executes one node event popped by the simulator; it reports
// whether it queued e again, in which case e is still owned by the heap.
//
// A CPU event reserves a slot of length cost at the end of the CPU's
// current backlog when it comes due and runs its handler when the slot
// begins. Reserving eagerly (instead of polling for a free CPU) keeps
// event processing linear under saturation and preserves FIFO order
// among simultaneous arrivals. Work queued for a crashed node or for an
// earlier incarnation is dropped at every stage, and a dropped frame
// still releases its pool reference.
func (n *Node) run(e *event) bool {
	c := n.cluster
	if n.crashed || n.incarnation != e.inc {
		c.unref(e.ref)
		return false
	}
	now := c.Sim.Now()
	if e.kind == evTimer {
		if n.timers[e.timer] != e.gen {
			return false // cancelled or re-armed
		}
		delete(n.timers, e.timer)
		e.kind = evTick
		c.Sim.push(now, e)
		return true
	}
	if !e.reserved {
		start := max(now, n.cpuBusy)
		n.cpuBusy = start + e.cost
		if start != now {
			e.reserved = true
			c.Sim.push(start, e)
			return true
		}
	}
	switch e.kind {
	case evTick:
		if c.tracing {
			c.cfg.Trace.Record(trace.Event{
				At: now, Node: n.ID, Kind: trace.TimerFired, Network: -1,
				A: int64(e.timer.Class), B: int64(e.timer.Arg),
			})
		}
		n.execute(now, n.Stack.OnTimer(now, e.timer))
	case evRecv, evLoopback:
		if c.tracing && e.kind == evRecv {
			kind, _ := wire.PeekKind(e.data)
			c.cfg.Trace.Record(trace.Event{
				At: now, Node: n.ID, Kind: trace.PacketReceived, Network: e.net,
				A: int64(kind), B: int64(e.dest), C: int64(len(e.data)),
			})
		}
		n.execute(now, n.Stack.OnPacket(now, e.net, e.data))
		c.unref(e.ref)
	}
	return false
}

// execute performs the actions emitted by the stack at virtual time now.
func (n *Node) execute(now proto.Time, actions []proto.Action) {
	c := n.cluster
	c.frameDepth++
	for _, a := range actions {
		switch act := a.(type) {
		case *proto.SendPacket:
			// Each send costs CPU and then enters the network's transmit
			// queue at the moment the CPU finishes handing it off.
			n.cpuBusy += n.cluster.cfg.Host.SendCost
			if c.tracing {
				kind, _ := wire.PeekKind(act.Data)
				c.cfg.Trace.Record(trace.Event{
					At: now, Node: n.ID, Kind: trace.PacketSent, Network: act.Network,
					A: int64(kind), B: int64(act.Dest), C: int64(len(act.Data)),
				})
			}
			n.transmit(n.cpuBusy, act)
		case *proto.SetTimer:
			n.timerGen++
			n.timers[act.ID] = n.timerGen
			after := act.After
			if s := n.timerSkew; s > 0 && s != 1 {
				after = time.Duration(float64(after) * s)
			}
			e := c.Sim.alloc()
			e.kind, e.timer, e.gen = evTimer, act.ID, n.timerGen
			n.queue(now+after, e)
		case *proto.CancelTimer:
			delete(n.timers, act.ID)
		case *proto.Deliver:
			n.cpuBusy += n.cluster.cfg.Host.DeliverCost
			if c.tracing {
				c.cfg.Trace.Record(trace.Event{
					At: now, Node: n.ID, Kind: trace.Delivered, Network: -1,
					A: int64(act.Msg.Seq), B: int64(act.Msg.Sender), C: int64(len(act.Msg.Payload)),
				})
			}
			n.DeliveredCount++
			n.DeliveredBytes += uint64(len(act.Msg.Payload))
			if n.KeepPayloads {
				n.Delivered = append(n.Delivered, act.Msg)
			}
			if n.OnDeliver != nil {
				n.OnDeliver(act.Msg)
			}
		case proto.Fault:
			if c.tracing {
				c.cfg.Trace.Record(trace.Event{
					At: now, Node: n.ID, Kind: trace.FaultRaised,
					Network: act.Report.Network, Detail: act.Report.Reason,
				})
			}
			n.Faults = append(n.Faults, act.Report)
			if n.OnFault != nil {
				n.OnFault(act.Report)
			}
		case proto.FaultCleared:
			if c.tracing {
				c.cfg.Trace.Record(trace.Event{
					At: now, Node: n.ID, Kind: trace.FaultCleared,
					Network: act.Report.Network, A: int64(act.Report.Probation),
				})
			}
			n.Cleared = append(n.Cleared, act.Report)
			if n.OnCleared != nil {
				n.OnCleared(act.Report)
			}
		case proto.Config:
			if c.tracing {
				detail := ""
				if act.Change.Transitional {
					detail = "transitional"
				}
				c.cfg.Trace.Record(trace.Event{
					At: now, Node: n.ID, Kind: trace.ConfigChanged, Network: -1,
					A: int64(act.Change.Ring.Rep), B: int64(act.Change.Ring.Epoch),
					C: int64(len(act.Change.Members)), Detail: detail,
				})
			}
			n.Configs = append(n.Configs, act.Change)
			if n.OnConfig != nil {
				n.OnConfig(act.Change)
			}
		}
	}
	c.frameDepth--
	if c.frameDepth == 0 {
		c.sweepFrames()
	}
	n.Stack.Recycle(actions)
}

// transmit puts a frame on a network at time t. The scheduled deliveries
// copy what they need out of pkt, which is recycled with its batch.
func (n *Node) transmit(t proto.Time, pkt *proto.SendPacket) {
	if n.blockedSend[pkt.Network] {
		return
	}
	net := n.cluster.nets[pkt.Network]
	start := max(t, net.busyUntil)
	waited := start - t
	net.busyUntil = start + net.params.frameTime(len(pkt.Data))
	lat := net.params.Latency
	if net.slowLat > 0 {
		lat = net.slowLat
	}
	arrival := net.busyUntil + lat
	ref := n.cluster.trackFrame(pkt.Data)
	if net.congestion > 0 {
		// Loss correlates with the medium's backlog: the probability ramps
		// from zero on an idle network to the configured rate once the frame
		// waited a full congestionWindow for the wire. A drop discards the
		// whole frame for every receiver, like a switch buffer overflow.
		factor := float64(waited) / float64(congestionWindow)
		if factor > 1 {
			factor = 1
		}
		if factor > 0 && net.rng.Float64() < net.congestion*factor {
			return // pooled frames are swept at the batch boundary
		}
	}
	n.emit(net, arrival, pkt, ref)
	if net.dupProb > 0 && net.rng.Float64() < net.dupProb {
		// A babbling switch re-emits the whole frame a beat later.
		n.emit(net, arrival+100*time.Microsecond, pkt, ref)
	}
}

// emit delivers one transmitted frame arriving at time at to its
// receivers: every other node for a broadcast, else the destination.
func (n *Node) emit(net *network, at proto.Time, pkt *proto.SendPacket, ref *frameRef) {
	c := n.cluster
	switch pkt.Dest {
	case proto.BroadcastID:
		for _, id := range c.order {
			if id != n.ID {
				c.deliverFrame(net, n.ID, id, at, pkt, ref)
			}
		}
	case n.ID:
		// Unicast to self (singleton successor): loop straight back.
		n.recv(evLoopback, net.idx, at, pkt, ref)
	default:
		c.deliverFrame(net, n.ID, pkt.Dest, at, pkt, ref)
	}
}

// deliverFrame delivers one frame to one receiver, applying fault rules.
// ref (which may be nil) is released once the receiver has processed the
// frame, so pooled buffers are recycled exactly when the last scheduled
// delivery completes.
func (c *Cluster) deliverFrame(net *network, from, to proto.NodeID, at proto.Time, pkt *proto.SendPacket, ref *frameRef) {
	dst := c.nodes[to]
	if dst == nil || dst.crashed {
		return
	}
	if !net.deliverable(from, to) {
		return
	}
	if dst.blockedRecv[net.idx] {
		return
	}
	dst.recv(evRecv, net.idx, at, pkt, ref)
}

// recv schedules the arrival of a frame on network net at time at; the
// node handles it on its CPU at RecvCost.
func (n *Node) recv(kind eventKind, net int, at proto.Time, pkt *proto.SendPacket, ref *frameRef) {
	if ref != nil {
		ref.refs++
	}
	e := n.cluster.Sim.alloc()
	e.kind, e.cost = kind, n.cluster.cfg.Host.RecvCost
	e.net, e.dest, e.data, e.ref = net, pkt.Dest, pkt.Data, ref
	n.queue(at, e)
}
