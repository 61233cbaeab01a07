// Package totem is a Go implementation of the Totem Redundant Ring
// Protocol (Koch, Moser, Melliar-Smith — ICDCS 2002): reliable,
// totally-ordered group communication over N redundant local-area
// networks, with partial or total network failures kept transparent to
// the application.
//
// A Node joins a logical token-passing ring (the Totem Single Ring
// Protocol) and exchanges messages with the other members. The redundant
// ring layer (RRP) sends traffic over multiple networks according to a
// replication style:
//
//   - Active: every packet on every network; loss on up to N-1 networks
//     is masked with no retransmission delay.
//   - Passive: each packet on one network, round-robin; the aggregate
//     throughput of all networks becomes available.
//   - ActivePassive: K of N copies — a configurable middle ground.
//
// When a network fails, the built-in monitors raise a FaultReport while
// the ring keeps running on the surviving networks — no membership change
// occurs (paper §3). A recovery monitor then watches the faulted network
// and readmits it automatically once it demonstrates sustained clean
// reception, with exponential flap damping for unstable links; the
// readmission is announced on FaultsCleared (set DisableAutoReadmit to
// keep the paper's manual-only model). Node joins, crashes and
// partition merges are handled
// by the membership protocol and surfaced as ConfigChange events with
// extended-virtual-synchrony semantics.
//
// Minimal use:
//
//	hub := totem.NewMemHub(2) // or totem.NewUDPTransport(...)
//	tr, _ := hub.Join(1)
//	node, _ := totem.NewNode(totem.Config{
//		ID:          1,
//		Networks:    2,
//		Replication: totem.Passive,
//	}, tr)
//	defer node.Close()
//	node.Send([]byte("hello"))
//	for d := range node.Deliveries() {
//		fmt.Printf("%s said %q\n", d.Sender, d.Payload)
//	}
package totem

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/totem-rrp/totem/internal/core"
	"github.com/totem-rrp/totem/internal/metrics"
	"github.com/totem-rrp/totem/internal/proto"
	"github.com/totem-rrp/totem/internal/shard"
	"github.com/totem-rrp/totem/internal/srp"
	"github.com/totem-rrp/totem/internal/stack"
	"github.com/totem-rrp/totem/internal/trace"
	"github.com/totem-rrp/totem/internal/transport"
	"github.com/totem-rrp/totem/internal/wire"
)

// Re-exported primitive types. These are aliases: values flow between the
// public API and the protocol engine without conversion.
type (
	// NodeID identifies a ring member (non-zero).
	NodeID = proto.NodeID
	// RingID identifies a membership configuration.
	RingID = proto.RingID
	// Delivery is one totally-ordered message.
	Delivery = proto.Delivery
	// FaultReport is a network-fault alarm from the RRP monitors.
	FaultReport = proto.FaultReport
	// ClearReport announces the automatic readmission of a healed network.
	ClearReport = proto.ClearReport
	// ConfigChange is a membership change (transitional or regular).
	ConfigChange = proto.ConfigChange
	// ReplicationStyle selects how traffic maps onto the networks.
	ReplicationStyle = proto.ReplicationStyle
)

// Replication styles (paper §4).
const (
	// NoReplication runs the ring on a single network (the paper's
	// baseline).
	NoReplication = proto.ReplicationNone
	// Active sends every message and token on all networks (paper §5).
	Active = proto.ReplicationActive
	// Passive alternates messages and tokens across the networks
	// round-robin (paper §6).
	Passive = proto.ReplicationPassive
	// ActivePassive sends K of N copies (paper §7); requires N >= 3.
	ActivePassive = proto.ReplicationActivePassive
)

// Delivery guarantees.
const (
	// Agreed delivers a message once all predecessors in the total order
	// have been received (default).
	Agreed = srp.DeliverAgreed
	// Safe additionally waits until every ring member is known to hold
	// the message.
	Safe = srp.DeliverSafe
)

// Transport moves packets over the N redundant networks. Use NewMemHub
// for in-process rings or NewUDPTransport for real deployments; custom
// implementations (e.g. the discrete-event simulator) satisfy the same
// interface.
type Transport = transport.Transport

// MemHub is an in-process transport hub (see NewMemHub).
type MemHub = transport.MemHub

// NewMemHub creates an in-process hub with n redundant networks. Each
// node calls Join to obtain its Transport.
func NewMemHub(n int) *MemHub { return transport.NewMemHub(n) }

// UDPConfig configures a UDP transport (one socket per network).
type UDPConfig = transport.UDPConfig

// NewUDPTransport opens UDP sockets on each redundant network.
func NewUDPTransport(cfg UDPConfig) (Transport, error) { return transport.NewUDP(cfg) }

// Config parameterises a Node. Zero fields take defaults; ID, Networks
// and Replication are required.
type Config struct {
	// ID is this node's unique, non-zero identifier. The smallest ID in a
	// membership acts as ring representative.
	ID NodeID
	// Networks is N, the number of redundant networks the transport
	// provides.
	Networks int
	// Replication selects the replication style.
	Replication ReplicationStyle
	// K is the copy count for ActivePassive (default 2).
	K int
	// Delivery selects Agreed (default) or Safe delivery.
	Delivery srp.DeliveryMode

	// DisableAutoReadmit turns off the automatic readmission of healed
	// networks, restoring the paper's manual-only model: a faulty network
	// then stays excluded until ReadmitNetwork is called. By default the
	// recovery monitor places faulted networks on probation and readmits
	// them once they demonstrate sustained clean reception, announcing
	// each readmission on FaultsCleared.
	DisableAutoReadmit bool

	// Shards is M, the number of independent rings the node runs over the
	// same N redundant networks. 0 and 1 both mean the classic single
	// ring, whose behaviour (and wire format) is exactly that of a node
	// built before sharding existed. With M > 1 every shard is a full
	// SRP+RRP instance with its own token, membership and monitors;
	// SendKeyed routes each key to one shard, and Deliveries merges all
	// shards (tagging Delivery.Shard). Aggregate throughput scales with M
	// because the M token rotations proceed concurrently.
	Shards int
	// ShardFunc maps SendKeyed keys to shards; nil selects the default
	// FNV-1a hash. It must be pure and identical on every node, or two
	// nodes would order the same key's messages on different rings.
	ShardFunc ShardFunc
	// CrossOrder, with Shards > 1, merges the per-shard streams into one
	// deterministic global total order: every node's Deliveries channel
	// then yields the exact same cross-shard sequence, at the cost of a
	// Lamport-stamp envelope on every payload and a hold-back until every
	// shard's merge cut advances (idle shards emit periodic markers, see
	// Options.MarkerInterval). Ignored when Shards <= 1.
	CrossOrder bool

	// Tune, if non-nil, may adjust the low-level protocol parameters
	// (timeouts, window sizes, monitor thresholds) before validation. With
	// Shards > 1 the tuned parameters apply to every shard.
	Tune func(*Options)
}

// ShardFunc maps a key to a shard in [0, shards). It must be pure and
// identical across all nodes of a ring.
type ShardFunc = func(key []byte, shards int) int

// DefaultShardFunc is the FNV-1a key hash used when Config.ShardFunc is
// nil.
func DefaultShardFunc(key []byte, shards int) int { return shard.Hash(key, shards) }

// MaxShards is the largest permitted Config.Shards (the wire envelope
// carries the shard index in one byte).
const MaxShards = wire.MaxShards

// Options exposes the low-level protocol knobs to Config.Tune.
type Options struct {
	// SRP holds the single-ring protocol parameters (timeouts, flow
	// control window, queue bounds).
	SRP srp.Config
	// RRP holds the redundant-ring parameters (token timers, monitor
	// thresholds, decay interval).
	RRP core.Config

	// Tracer, if non-nil, receives every protocol event (packets, timers,
	// deliveries, faults, membership, machine probes). It must be safe for
	// concurrent reads if the caller inspects it while the node runs;
	// trace.NewRing and trace.NewCounter both are. When nil and
	// TraceCapacity > 0, the node creates an internal ring of that
	// capacity, exposed via Node.Trace.
	Tracer trace.Tracer
	// TraceCapacity sizes the internal trace ring created when Tracer is
	// nil. Zero disables tracing entirely (probe emission then costs a
	// single predicted branch per site).
	TraceCapacity int

	// DeliveryTap, if non-nil, observes every delivery synchronously on
	// the protocol goroutine, before it is queued on Node.Deliveries. It
	// must not block: a slow tap stalls the token ring. The conformance
	// harness uses it to feed the torture invariant checker in exact
	// protocol order; Deliveries still receives every message. With
	// Shards > 1 the tap fires concurrently from M protocol goroutines
	// (Delivery.Shard identifies the ring) in per-shard protocol order,
	// not in the merged CrossOrder sequence; CrossOrder envelopes are
	// stripped and markers skipped before the tap sees a delivery.
	DeliveryTap func(Delivery)

	// MarkerInterval is the period at which a CrossOrder node emits
	// cut-advancement markers on every shard so idle shards do not stall
	// the merge (default 25ms). Only meaningful with Config.CrossOrder
	// and Shards > 1.
	MarkerInterval time.Duration

	// Bulk tunes the sender side of Node.SendBulk (submit workers). The
	// receiver-side transfer size limit is SRP.MaxBulkTransfer and the
	// lane's ring pacing SRP.BulkMaxPerVisit / SRP.BulkYieldPerVisit.
	Bulk BulkOptions
}

// Errors returned by the public API.
var (
	// ErrBackpressure reports a full send queue; retry after deliveries
	// drain.
	ErrBackpressure = errors.New("totem: send queue full")
	// ErrClosed reports use after Close.
	ErrClosed = errors.New("totem: node closed")
	// ErrConfig reports an invalid configuration.
	ErrConfig = errors.New("totem: invalid configuration")
)

// Node is one member of the redundant ring — or, with Config.Shards > 1,
// one member of M independent rings sharing the same networks. All
// methods are safe for concurrent use.
type Node struct {
	id         NodeID
	shards     int
	shardFn    ShardFunc
	crossOrder bool

	rts  []*transport.Runtime // one per shard; index 0 always exists
	mets []*metrics.Registry  // per-shard registries, parallel to rts
	mux  *transport.ShardMux  // nil on the single-ring path
	ring *trace.Ring          // non-nil only when TraceCapacity created it

	// Merged event streams, nil on the single-ring path (the accessors
	// then hand out shard 0's runtime channels directly, so the M=1 node
	// is the pre-sharding node, not an emulation of it).
	deliveries chan Delivery
	faults     chan FaultReport
	cleared    chan ClearReport
	configs    chan ConfigChange

	clock        *shard.Clock  // CrossOrder Lamport clock
	mergePending atomic.Int64  // CrossOrder hold-back depth gauge
	markerStop   chan struct{} // stops the CrossOrder marker ticker

	// Bulk-lane sender state (see bulk.go). Transfers run on shard 0.
	bulkOpts   BulkOptions
	bulkMax    int // receiver-side MaxBulkTransfer, for early rejection
	bulkNextID atomic.Uint64
	bulkMu     sync.Mutex
	bulkXfers  map[uint64]*BulkTransfer
	bulkClosed chan struct{} // closed when the bulk dispatcher exits

	mu     sync.Mutex
	closed bool
}

// mergedDepth buffers the fan-in channels; the per-shard runtimes queue
// without bound behind them, so the ring never stalls on a slow consumer
// either way.
const mergedDepth = 1024

// NewNode builds and starts a node on the given transport. The node
// immediately begins forming or joining its ring (each of its rings, with
// Shards > 1); membership progress is reported on ConfigChanges.
func NewNode(cfg Config, tr Transport) (*Node, error) {
	if tr == nil {
		return nil, fmt.Errorf("%w: nil transport", ErrConfig)
	}
	if cfg.Networks == 0 {
		cfg.Networks = tr.Networks()
	}
	if cfg.Networks != tr.Networks() {
		return nil, fmt.Errorf("%w: Networks=%d but transport has %d", ErrConfig, cfg.Networks, tr.Networks())
	}
	if cfg.Replication == 0 {
		cfg.Replication = NoReplication
	}
	if cfg.Shards < 0 || cfg.Shards > MaxShards {
		return nil, fmt.Errorf("%w: Shards=%d out of range [0,%d]", ErrConfig, cfg.Shards, MaxShards)
	}
	shards := cfg.Shards
	if shards == 0 {
		shards = 1
	}
	opts := Options{
		SRP: srp.DefaultConfig(cfg.ID),
		RRP: core.DefaultConfig(cfg.Networks, cfg.Replication),
	}
	// Real-time deployments get the idle token hold by default so an idle
	// ring does not spin the CPU; Tune may override it.
	opts.SRP.IdleTokenHold = 2 * time.Millisecond
	if cfg.K != 0 {
		opts.RRP.K = cfg.K
	}
	if cfg.Delivery != 0 {
		opts.SRP.Delivery = cfg.Delivery
	}
	if cfg.DisableAutoReadmit {
		opts.RRP.AutoReadmit = false
	}
	if cfg.Tune != nil {
		cfg.Tune(&opts)
		opts.SRP.ID = cfg.ID // the identity is not tunable
	}
	// Every shard runs the identical stack configuration, so validating it
	// once up front is the only check that can fail.
	scfg := stack.Config{SRP: opts.SRP, RRP: opts.RRP}
	if err := errors.Join(scfg.SRP.Validate(), scfg.RRP.Validate()); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	n := &Node{
		id:         cfg.ID,
		shards:     shards,
		shardFn:    cfg.ShardFunc,
		crossOrder: cfg.CrossOrder && shards > 1,
		bulkOpts:   opts.Bulk.withDefaults(),
		bulkMax:    opts.SRP.MaxBulkTransfer,
		bulkClosed: make(chan struct{}),
	}
	if n.bulkMax == 0 {
		n.bulkMax = srp.DefaultMaxBulkTransfer
	}
	if n.shardFn == nil {
		n.shardFn = DefaultShardFunc
	}

	// Each shard drives its own protocol stack through its own transport
	// view: the raw transport for a single ring, a mux port per shard
	// otherwise.
	ports := []Transport{tr}
	if shards > 1 {
		mux, err := transport.NewShardMux(tr, shards)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrConfig, err)
		}
		n.mux = mux
		ports = ports[:0]
		for i := 0; i < shards; i++ {
			ports = append(ports, mux.Port(i))
		}
	}
	tracer := opts.Tracer
	if tracer == nil && opts.TraceCapacity > 0 {
		n.ring = trace.NewRing(opts.TraceCapacity)
		tracer = n.ring
	}
	for i, port := range ports {
		st, err := stack.New(scfg)
		if err != nil {
			panic(err) // unreachable: scfg was validated above
		}
		rt := transport.NewRuntime(st, port)
		// The tracer observes shard 0 only: trace rings are written from
		// one protocol goroutine, and shard 0 is the ring that exists at
		// every shard count.
		if tracer != nil && i == 0 {
			rt.SetTracer(tracer)
		}
		if tap := opts.DeliveryTap; tap != nil {
			rt.SetDeliveryTap(n.wrapTap(tap, i))
		}
		n.rts = append(n.rts, rt)
		n.mets = append(n.mets, st.Metrics())
	}
	if shards > 1 {
		n.startFanIn(opts)
	}
	for _, rt := range n.rts {
		rt.Start()
	}
	go n.bulkDispatch()
	return n, nil
}

// wrapTap adapts a user DeliveryTap to shard i: it tags the shard and, in
// CrossOrder mode, strips the Lamport envelope and swallows markers.
func (n *Node) wrapTap(tap func(Delivery), i int) func(Delivery) {
	return func(d Delivery) {
		d.Shard = i
		if n.crossOrder {
			kind, _, body, err := shard.Unwrap(d.Payload)
			if err != nil || kind != shard.KindApp {
				return
			}
			d.Payload = body
		}
		tap(d)
	}
}

// startFanIn wires the merged event streams of a multi-shard node: plain
// per-shard forwarders for faults, clears and configs, and either plain
// forwarders (tagging Delivery.Shard) or the deterministic CrossOrder
// merge for deliveries.
func (n *Node) startFanIn(opts Options) {
	n.deliveries = make(chan Delivery, mergedDepth)
	n.faults = make(chan FaultReport, mergedDepth)
	n.cleared = make(chan ClearReport, mergedDepth)
	n.configs = make(chan ConfigChange, mergedDepth)

	srcF := make([]<-chan FaultReport, n.shards)
	srcC := make([]<-chan ClearReport, n.shards)
	srcG := make([]<-chan ConfigChange, n.shards)
	for i, rt := range n.rts {
		srcF[i] = rt.Faults()
		srcC[i] = rt.Cleared()
		srcG[i] = rt.Configs()
	}
	fanIn(srcF, n.faults, func(f *FaultReport, i int) { f.Shard = i })
	fanIn(srcC, n.cleared, func(c *ClearReport, i int) { c.Shard = i })
	fanIn(srcG, n.configs, func(c *ConfigChange, i int) { c.Shard = i })

	if !n.crossOrder {
		srcD := make([]<-chan Delivery, n.shards)
		for i, rt := range n.rts {
			srcD[i] = rt.Deliveries()
		}
		fanIn(srcD, n.deliveries, func(d *Delivery, i int) { d.Shard = i })
		return
	}

	n.clock = &shard.Clock{}
	n.mets[0].RegisterFunc("shard.merge_pending", n.mergePending.Load)

	// Feeders collapse the M per-shard streams into one channel the merge
	// goroutine consumes; the runtimes' unbounded queues sit behind these
	// sends, so the rings never block on the merge.
	in := make(chan Delivery, mergedDepth)
	var wg sync.WaitGroup
	for i, rt := range n.rts {
		wg.Add(1)
		go func(i int, src <-chan Delivery) {
			defer wg.Done()
			for d := range src {
				d.Shard = i
				in <- d
			}
		}(i, rt.Deliveries())
	}
	go func() { wg.Wait(); close(in) }()
	go n.mergeLoop(in)

	// The marker ticker keeps idle shards' merge cuts advancing. Every
	// node ticks: markers are 9-byte messages and redundant markers are
	// harmless, while depending on one designated node would stall the
	// merge when that node crashes.
	interval := opts.MarkerInterval
	if interval <= 0 {
		interval = 25 * time.Millisecond
	}
	n.markerStop = make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-n.markerStop:
				return
			case <-t.C:
				for _, rt := range n.rts {
					rt.Submit(shard.WrapMarker(n.clock.Tick()))
				}
			}
		}
	}()
}

// mergeLoop runs the deterministic cross-shard merge: it folds each
// shard's (totally ordered) delivery stream into the Lamport merge and
// releases the global sequence on the merged channel. Because the merge
// order is a pure function of the per-shard streams, every node's loop
// emits the identical sequence. At the first delivery of each regular
// configuration on a shard it announces its cut there, for the merge's
// floor agreement (shard.Merge.Begin).
func (n *Node) mergeLoop(in <-chan Delivery) {
	defer close(n.deliveries)
	m := shard.NewMerge(n.shards)
	owed := make([][]byte, n.shards) // floor announcements not yet queued
	for d := range in {
		kind, ts, body, err := shard.Unwrap(d.Payload)
		if err != nil {
			// Not a CrossOrder envelope: a peer running plain sharding is
			// misconfigured; dropping beats corrupting the global order.
			continue
		}
		n.clock.Observe(ts)
		s := d.Shard
		if !d.Transitional && d.Ring != m.Ring(s) {
			ring, members := n.RingOf(s)
			if ring != d.Ring {
				members = nil // the shard has moved on: this round carries into the next
			}
			owed[s] = shard.WrapFloor(m.Begin(s, d.Ring, members), d.Ring)
		}
		switch kind {
		case shard.KindFloor:
			if ring, err := shard.FloorRing(body); err == nil {
				m.Floor(s, ring, d.Sender, ts)
			}
		case shard.KindMarker:
			m.Push(s, shard.Item{TS: ts, Marker: true})
		default:
			d.Payload = body
			m.Push(s, shard.Item{TS: ts, Payload: d})
		}
		for i, env := range owed {
			if env != nil && n.rts[i].Submit(env) {
				owed[i] = nil
			}
		}
		for {
			it, _, ok := m.Pop()
			if !ok {
				break
			}
			n.deliveries <- it.Payload.(Delivery)
		}
		n.mergePending.Store(int64(m.Pending()))
	}
}

// fanIn forwards every source channel into out, tagging each value with
// its source index, and closes out once all sources close.
//
// Backpressure contract (pinned by TestBlockedDeliveriesReaderShedsNothing):
// when a consumer stops draining out, the forwarders block on the send —
// nothing is ever shed. The runtimes' unbounded delivery queues sit
// behind the source channels, so a stalled consumer buffers deliveries
// in memory without ever stalling the ring itself; every queued message
// is delivered, in order, once the consumer resumes.
func fanIn[T any](srcs []<-chan T, out chan<- T, tag func(*T, int)) {
	var wg sync.WaitGroup
	for i, src := range srcs {
		wg.Add(1)
		go func(i int, src <-chan T) {
			defer wg.Done()
			for v := range src {
				tag(&v, i)
				out <- v
			}
		}(i, src)
	}
	go func() { wg.Wait(); close(out) }()
}

// ID returns this node's identifier.
func (n *Node) ID() NodeID { return n.id }

// Shards returns M, the number of independent rings this node runs
// (1 for a classic single-ring node).
func (n *Node) Shards() int { return n.shards }

// CrossOrdered reports whether the node merges its shards' streams into
// one total order (Config.CrossOrder). State-machine replication over
// Deliveries requires it whenever Shards > 1 — without the merge, only
// per-shard subsequences agree across nodes.
func (n *Node) CrossOrdered() bool { return n.crossOrder }

// ShardOf returns the shard SendKeyed would route key to.
func (n *Node) ShardOf(key []byte) int {
	s := n.shardFn(key, n.shards)
	if s < 0 || s >= n.shards {
		return 0
	}
	return s
}

// submit queues payload on shard s, applying the CrossOrder envelope when
// the merge is on.
func (n *Node) submit(s int, payload []byte) error {
	n.mu.Lock()
	closed := n.closed
	n.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if n.crossOrder {
		payload = shard.WrapApp(n.clock.Tick(), payload)
	}
	if !n.rts[s].Submit(payload) {
		return ErrBackpressure
	}
	return nil
}

// Send queues payload for totally-ordered broadcast to the ring — shard 0
// on a multi-shard node (use SendKeyed to spread load). The payload is
// owned by the node afterwards. It returns ErrBackpressure when the send
// queue is full and ErrClosed after Close.
func (n *Node) Send(payload []byte) error { return n.submit(0, payload) }

// SendKeyed queues payload on the shard ShardFunc assigns to key. All
// messages sharing a key are totally ordered with respect to each other
// on every node; messages on different shards are mutually unordered
// unless CrossOrder is enabled. On a single-ring node SendKeyed is Send.
func (n *Node) SendKeyed(key, payload []byte) error {
	s := n.shardFn(key, n.shards)
	if s < 0 || s >= n.shards {
		return fmt.Errorf("%w: ShardFunc returned %d for %d shards", ErrConfig, s, n.shards)
	}
	return n.submit(s, payload)
}

// Deliveries returns the totally-ordered message stream. On a single
// ring, every node in a configuration observes the same sequence. With
// Shards > 1 the channel merges all shards (Delivery.Shard identifies
// each message's ring): per-shard subsequences are identical on every
// node, and with CrossOrder the entire merged sequence is. The channel
// closes on Close.
func (n *Node) Deliveries() <-chan Delivery {
	if n.deliveries != nil {
		return n.deliveries
	}
	return n.rts[0].Deliveries()
}

// Faults returns the network fault-report stream (paper §3: the alarm an
// administrator reacts to while the system keeps running). With
// Shards > 1 each shard's monitors report independently (FaultReport.Shard);
// a physical network fault typically surfaces once per shard.
func (n *Node) Faults() <-chan FaultReport {
	if n.faults != nil {
		return n.faults
	}
	return n.rts[0].Faults()
}

// FaultsCleared returns the stream of automatic readmissions: one
// ClearReport per network the recovery monitor returned to service after
// it served out its probation. Empty when DisableAutoReadmit is set. The
// channel closes on Close.
func (n *Node) FaultsCleared() <-chan ClearReport {
	if n.cleared != nil {
		return n.cleared
	}
	return n.rts[0].Cleared()
}

// ConfigChanges returns the membership change stream. Per extended
// virtual synchrony, each regular configuration is preceded by a
// transitional configuration scoping the messages delivered across the
// membership change. With Shards > 1 every shard's membership evolves
// independently (ConfigChange.Shard). The channel closes on Close.
func (n *Node) ConfigChanges() <-chan ConfigChange {
	if n.configs != nil {
		return n.configs
	}
	return n.rts[0].Configs()
}

// Ring returns the current configuration's identifier and members (shard
// 0's on a multi-shard node; see RingOf). It reports the zero RingID
// until the first configuration installs.
func (n *Node) Ring() (RingID, []NodeID) { return n.RingOf(0) }

// RingOf returns shard s's configuration identifier and members. It
// panics if s is out of [0, Shards()), like a slice index.
func (n *Node) RingOf(s int) (RingID, []NodeID) {
	var (
		ring    RingID
		members []NodeID
	)
	n.rts[s].Inspect(func(st *stack.Node) {
		ring = st.SRP().Ring()
		members = st.SRP().Members()
	})
	return ring, members
}

// Operational reports whether the node has installed a configuration and
// is exchanging traffic (as opposed to forming one) — on every shard,
// with Shards > 1.
func (n *Node) Operational() bool {
	for s := range n.rts {
		if !n.OperationalOf(s) {
			return false
		}
	}
	return true
}

// OperationalOf reports whether shard s has installed a configuration.
// It panics if s is out of [0, Shards()), like a slice index.
func (n *Node) OperationalOf(s int) bool {
	op := false
	n.rts[s].Inspect(func(st *stack.Node) {
		op = st.SRP().State() == srp.StateOperational
	})
	return op
}

// StateName returns the human-readable name of the node's current
// protocol state ("operational", "gather", ...), for diagnostics (shard
// 0's state on a multi-shard node).
func (n *Node) StateName() string {
	s := "closed"
	n.rts[0].Inspect(func(st *stack.Node) {
		s = st.SRP().State().String()
	})
	return s
}

// MaxEpoch returns the highest ring epoch this node has observed, across
// all shards. A node restarting into an existing ring should carry it
// forward (via Options.SRP.InitialEpoch) so its new ring identifiers keep
// advancing.
func (n *Node) MaxEpoch() uint32 {
	var e uint32
	for _, rt := range n.rts {
		rt.Inspect(func(st *stack.Node) {
			if m := st.SRP().MaxEpoch(); m > e {
				e = m
			}
		})
	}
	return e
}

// Backlog returns the number of queued, not-yet-ordered application
// messages, summed across shards (drains to zero on an idle healthy
// ring).
func (n *Node) Backlog() int {
	b := 0
	for _, rt := range n.rts {
		rt.Inspect(func(st *stack.Node) {
			b += st.Backlog()
		})
	}
	return b
}

// NetworkFaults returns the per-network faulty flags of the RRP layer
// (shard 0's monitors on a multi-shard node; shards monitor the same
// physical networks independently).
func (n *Node) NetworkFaults() []bool {
	var f []bool
	n.rts[0].Inspect(func(st *stack.Node) {
		f = st.Replicator().Faulty()
	})
	return f
}

// ReadmitNetwork clears the faulty verdict on a repaired network — the
// administrator's action after reacting to the alarm (paper §3). The
// network immediately rejoins the replication pattern with fresh monitor
// state, on every shard. It is a no-op if the network was not marked
// faulty. With automatic readmission enabled (the default) calling it is
// optional: the recovery monitor readmits healed networks on its own
// after probation.
func (n *Node) ReadmitNetwork(network int) {
	for _, rt := range n.rts {
		rt.Inspect(func(st *stack.Node) {
			st.Replicator().Readmit(network)
		})
	}
}

// Corrupt scrambles one slice of this node's protocol state in place and
// reports whether the damage applied — the arbitrary-initial-state
// recovery probe used by the conformance harness (DESIGN.md §12). sub is
// one of "monitors", "held-token", "ring-seq", "aru"; seed fixes the
// scramble for replay. The protocol is expected to re-converge on its own;
// this is a fault-injection hook, not an administrative API.
func (n *Node) Corrupt(sub string, seed int64) bool {
	return n.rts[0].Mutate(func(now proto.Time, st *stack.Node) []proto.Action {
		return st.Corrupt(now, sub, seed)
	})
}

// Metrics returns the node's metric registry: every layer's named
// counters and gauges ("srp.*", "rrp.*", "udp.*", "runtime.*") in one
// snapshot-able source of truth. Safe for concurrent reads while the node
// runs. On a multi-shard node this is shard 0's registry, which also
// carries the shared wire and mux counters ("shardmux.*") and the
// CrossOrder hold-back gauge ("shard.merge_pending"); see MetricsOf.
func (n *Node) Metrics() *metrics.Registry { return n.mets[0] }

// MetricsOf returns shard s's metric registry — each shard's protocol
// layers count into their own namespace object. It panics if s is out of
// [0, Shards()), like a slice index.
func (n *Node) MetricsOf(s int) *metrics.Registry { return n.mets[s] }

// Trace returns the internal event ring created by Options.TraceCapacity,
// or nil when tracing is disabled or an external Tracer was supplied.
// On a multi-shard node the ring traces shard 0.
func (n *Node) Trace() *trace.Ring { return n.ring }

// Close shuts the node down: every shard's protocol loop stops and the
// event channels close once their buffered events are consumed or
// dropped. The transport is not closed (the caller owns it). Idempotent.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.mu.Unlock()
	if n.markerStop != nil {
		close(n.markerStop)
	}
	for _, rt := range n.rts {
		rt.Close()
	}
	if n.mux != nil {
		n.mux.Close()
	}
	return nil
}
