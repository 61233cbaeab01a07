// Package live is the in-process conformance harness for the real stack:
// it boots N genuine totem.Nodes on the goroutine runtime — over loopback
// UDP or the in-memory transport — drives them with seeded load through a
// netem-style impairment layer, and checks every run with the same
// torture invariants the virtual-time simulator uses. What the simulator
// cannot exercise, this harness does: real wall-clock timers, real
// goroutine scheduling, real sockets, and the races between them. See
// DESIGN.md §11.
package live

import (
	"math/rand"
	"sync"
	"time"

	"github.com/totem-rrp/totem/internal/metrics"
	"github.com/totem-rrp/totem/internal/proto"
	"github.com/totem-rrp/totem/internal/transport"
	"github.com/totem-rrp/totem/internal/wire"
)

// NetemParams is the baseline impairment applied to every datagram on
// every network for the whole run — the "noisy lab network" under the
// scheduled faults. All probabilities are per datagram.
type NetemParams struct {
	// Loss drops a datagram outright.
	Loss float64
	// Dup sends a datagram twice.
	Dup float64
	// DelayProb holds a datagram back for a random time in
	// [DelayMin, DelayMax] — later traffic overtakes it, which is how the
	// layer produces reordering.
	DelayProb float64
	DelayMin  time.Duration
	DelayMax  time.Duration
	// Seed fixes the impairment RNG; same seed, same drop/dup/delay draws
	// per draw sequence (the interleaving is still real-time).
	Seed int64
}

// DefaultNetemParams is a gentle but real impairment mix: enough to force
// retransmission, reordering and duplicate-suppression paths without
// making runs flaky.
func DefaultNetemParams(seed int64) NetemParams {
	return NetemParams{
		Loss:      0.02,
		Dup:       0.01,
		DelayProb: 0.05,
		DelayMin:  200 * time.Microsecond,
		DelayMax:  2 * time.Millisecond,
		Seed:      seed,
	}
}

// Netem is the shared impairment state for one cluster: the baseline
// params plus the scheduled fault flags, mirroring the simulator's fault
// API (SetLoss, KillNetwork, Partition, BlockSend, BlockRecv) so a
// torture.Program maps onto it one to one. Every node's Impaired wrapper
// consults it on each send and receive.
type Netem struct {
	networks int

	mu        sync.Mutex
	rng       *rand.Rand
	p         NetemParams
	down      []bool
	loss      []float64
	part      []map[proto.NodeID]int // nil = no partition on that network
	blockSend map[proto.NodeID][]bool
	blockRecv map[proto.NodeID][]bool

	// Gray faults (DESIGN.md §12). blockPair holds directed from->to
	// blocks per network; congest/dupProb are scheduled per-network
	// probabilities; slowLat, when non-zero, is a forced floor on every
	// datagram's delay (latency inflation, not loss).
	blockPair map[[2]proto.NodeID][]bool
	congest   []float64
	dupProb   []float64
	slowLat   []time.Duration

	// Shard faults: a multi-ring cluster's shards share every physical
	// network, so per-shard faults are keyed off the wire shard tag rather
	// than a network index. blockShard silences one node's interface to
	// one shard (both directions); shardLoss drops one shard's frames
	// cluster-wide with the given probability.
	blockShard map[proto.NodeID]map[int]bool
	shardLoss  map[int]float64
	// congMark/congCount implement the load correlation for congestion
	// loss: sends inside one congestionWindow of each other count as
	// offered load, and the drop probability scales with that count.
	congMark  []time.Time
	congCount []int
}

// congestionWindow is the burst window for congestion-correlated loss: the
// more datagrams a network carried within the current window, the likelier
// the next one drops. congestionFull is the count at which the scheduled
// probability applies in full.
const (
	congestionWindow = 2 * time.Millisecond
	congestionFull   = 8
)

// NewNetem creates the impairment state for n networks.
func NewNetem(n int, p NetemParams) *Netem {
	return &Netem{
		networks:  n,
		rng:       rand.New(rand.NewSource(p.Seed)),
		p:         p,
		down:      make([]bool, n),
		loss:      make([]float64, n),
		part:      make([]map[proto.NodeID]int, n),
		blockSend: make(map[proto.NodeID][]bool),
		blockRecv: make(map[proto.NodeID][]bool),
		blockPair: make(map[[2]proto.NodeID][]bool),
		congest:   make([]float64, n),
		dupProb:   make([]float64, n),
		slowLat:   make([]time.Duration, n),
		congMark:  make([]time.Time, n),
		congCount: make([]int, n),

		blockShard: make(map[proto.NodeID]map[int]bool),
		shardLoss:  make(map[int]float64),
	}
}

// BlockShard silences node id's interface to shard sh in both directions
// (its frames drop on send and on receive). The other shards of the same
// node — and this shard on every other node — are untouched: the
// one-shard-dark gray fault a multi-ring deployment must survive without
// stalling the healthy rings.
func (nm *Netem) BlockShard(id proto.NodeID, sh int, blocked bool) {
	nm.mu.Lock()
	defer nm.mu.Unlock()
	m := nm.blockShard[id]
	if m == nil {
		if !blocked {
			return
		}
		m = make(map[int]bool)
		nm.blockShard[id] = m
	}
	if blocked {
		m[sh] = true
	} else {
		delete(m, sh)
	}
}

// SetShardLoss drops shard sh's frames cluster-wide with probability p on
// every send — a whole-ring brownout for one shard while its siblings on
// the same wires stay clean. 0 heals.
func (nm *Netem) SetShardLoss(sh int, p float64) {
	nm.mu.Lock()
	defer nm.mu.Unlock()
	if p <= 0 {
		delete(nm.shardLoss, sh)
	} else {
		nm.shardLoss[sh] = p
	}
}

// dropShardSend judges one outbound frame against the shard faults.
func (nm *Netem) dropShardSend(from proto.NodeID, sh int) bool {
	nm.mu.Lock()
	defer nm.mu.Unlock()
	if m := nm.blockShard[from]; m != nil && m[sh] {
		return true
	}
	if p := nm.shardLoss[sh]; p > 0 && nm.rng.Float64() < p {
		return true
	}
	return false
}

// dropShardRecv judges one inbound frame against the shard faults.
func (nm *Netem) dropShardRecv(id proto.NodeID, sh int) bool {
	nm.mu.Lock()
	defer nm.mu.Unlock()
	m := nm.blockShard[id]
	return m != nil && m[sh]
}

// shardFaultsActive reports whether any shard fault is scheduled, letting
// the hot path skip the per-frame shard peek entirely on unsharded (or
// unfaulted) clusters.
func (nm *Netem) shardFaultsActive() bool {
	nm.mu.Lock()
	defer nm.mu.Unlock()
	if len(nm.shardLoss) > 0 {
		return true
	}
	for _, m := range nm.blockShard {
		if len(m) > 0 {
			return true
		}
	}
	return false
}

// SetLoss sets network i's scheduled loss probability (on top of the
// baseline).
func (nm *Netem) SetLoss(i int, p float64) {
	nm.mu.Lock()
	defer nm.mu.Unlock()
	if i >= 0 && i < nm.networks {
		nm.loss[i] = p
	}
}

// KillNetwork silences network i in both directions for all nodes.
func (nm *Netem) KillNetwork(i int) { nm.setDown(i, true) }

// ReviveNetwork restores network i.
func (nm *Netem) ReviveNetwork(i int) { nm.setDown(i, false) }

func (nm *Netem) setDown(i int, v bool) {
	nm.mu.Lock()
	defer nm.mu.Unlock()
	if i >= 0 && i < nm.networks {
		nm.down[i] = v
	}
}

// Partition splits network i by group: traffic only flows between nodes
// in the same group. nil heals the partition.
func (nm *Netem) Partition(i int, groups map[proto.NodeID]int) {
	nm.mu.Lock()
	defer nm.mu.Unlock()
	if i >= 0 && i < nm.networks {
		nm.part[i] = groups
	}
}

// BlockSend stops id from sending on network i (paper §3 interface fault).
func (nm *Netem) BlockSend(id proto.NodeID, i int, blocked bool) {
	nm.mu.Lock()
	defer nm.mu.Unlock()
	nm.setBlock(nm.blockSend, id, i, blocked)
}

// BlockRecv stops id from receiving on network i.
func (nm *Netem) BlockRecv(id proto.NodeID, i int, blocked bool) {
	nm.mu.Lock()
	defer nm.mu.Unlock()
	nm.setBlock(nm.blockRecv, id, i, blocked)
}

func (nm *Netem) setBlock(m map[proto.NodeID][]bool, id proto.NodeID, i int, v bool) {
	if i < 0 || i >= nm.networks {
		return
	}
	b := m[id]
	if b == nil {
		b = make([]bool, nm.networks)
		m[id] = b
	}
	b[i] = v
}

// BlockPair blocks (or unblocks) the directed from->to path on network i.
// Only that direction is affected: to->from traffic still flows — the
// unidirectional-link gray fault (DESIGN.md §12).
func (nm *Netem) BlockPair(i int, from, to proto.NodeID, blocked bool) {
	nm.mu.Lock()
	defer nm.mu.Unlock()
	if i < 0 || i >= nm.networks {
		return
	}
	key := [2]proto.NodeID{from, to}
	b := nm.blockPair[key]
	if b == nil {
		if !blocked {
			return
		}
		b = make([]bool, nm.networks)
		nm.blockPair[key] = b
	}
	b[i] = blocked
	if !blocked {
		for _, set := range b {
			if set {
				return
			}
		}
		delete(nm.blockPair, key)
	}
}

// SetCongestion sets network i's congestion-correlated loss probability:
// the scheduled p applies in full only under burst load (see
// congestionWindow), so a quiet network stays clean while token storms and
// retransmit bursts suffer.
func (nm *Netem) SetCongestion(i int, p float64) {
	nm.mu.Lock()
	defer nm.mu.Unlock()
	if i >= 0 && i < nm.networks {
		nm.congest[i] = p
		nm.congCount[i] = 0
	}
}

// SetDupStorm sets network i's scheduled duplication probability (on top
// of the baseline dup rate).
func (nm *Netem) SetDupStorm(i int, p float64) {
	nm.mu.Lock()
	defer nm.mu.Unlock()
	if i >= 0 && i < nm.networks {
		nm.dupProb[i] = p
	}
}

// SetSlowNet forces a minimum per-datagram delay on network i — latency
// inflation with zero loss, the merely-slow half of the slow-vs-dead
// discrimination. 0 restores normal latency.
func (nm *Netem) SetSlowNet(i int, lat time.Duration) {
	nm.mu.Lock()
	defer nm.mu.Unlock()
	if i >= 0 && i < nm.networks {
		nm.slowLat[i] = lat
	}
}

// HealAll clears every scheduled fault (the unconditional end-of-window
// repair); the baseline impairment stays on.
func (nm *Netem) HealAll() {
	nm.mu.Lock()
	defer nm.mu.Unlock()
	for i := range nm.down {
		nm.down[i] = false
		nm.loss[i] = 0
		nm.part[i] = nil
		nm.congest[i] = 0
		nm.dupProb[i] = 0
		nm.slowLat[i] = 0
	}
	for _, b := range nm.blockSend {
		for i := range b {
			b[i] = false
		}
	}
	for _, b := range nm.blockRecv {
		for i := range b {
			b[i] = false
		}
	}
	nm.blockPair = make(map[[2]proto.NodeID][]bool)
	nm.blockShard = make(map[proto.NodeID]map[int]bool)
	nm.shardLoss = make(map[int]float64)
}

// sendVerdict is one send's fate, decided under the Netem lock so the RNG
// draw sequence is serialised.
type sendVerdict struct {
	drop  bool
	dup   bool
	delay time.Duration // 0 = send now
	// expand lists the unicast destinations replacing a broadcast while a
	// partition is active (sender-side expansion: receivers cannot filter
	// by sender, datagrams carry no sender address at this layer).
	expand []proto.NodeID
}

// pathAllowed is the direction-aware drop decision: it reports whether a
// datagram from `from` may reach `dest` on network `net`, consulting the
// partition map and the directed pair blocks. Every path fault funnels
// through here — once per (from, dest) pair, never once per send — so a
// one-way block stays one-way and a partition is judged on both endpoints,
// not just the sender's side. Caller holds nm.mu.
func (nm *Netem) pathAllowed(from, dest proto.NodeID, net int) bool {
	if groups := nm.part[net]; groups != nil && groups[from] != groups[dest] {
		return false
	}
	if b := nm.blockPair[[2]proto.NodeID{from, dest}]; b != nil && b[net] {
		return false
	}
	return true
}

// pathFiltered reports whether network net has any per-pair path faults
// that force broadcast expansion. Caller holds nm.mu.
func (nm *Netem) pathFiltered(net int) bool {
	if nm.part[net] != nil {
		return true
	}
	for _, b := range nm.blockPair {
		if b[net] {
			return true
		}
	}
	return false
}

// judgeSend decides what happens to one datagram from node `from` to
// `dest` on network `net`.
func (nm *Netem) judgeSend(from, dest proto.NodeID, net int, peers []proto.NodeID) sendVerdict {
	nm.mu.Lock()
	defer nm.mu.Unlock()
	if net < 0 || net >= nm.networks {
		return sendVerdict{drop: true}
	}
	if nm.down[net] {
		return sendVerdict{drop: true}
	}
	if b := nm.blockSend[from]; b != nil && b[net] {
		return sendVerdict{drop: true}
	}
	if p := nm.loss[net]; p > 0 && nm.rng.Float64() < p {
		return sendVerdict{drop: true}
	}
	if nm.p.Loss > 0 && nm.rng.Float64() < nm.p.Loss {
		return sendVerdict{drop: true}
	}
	if p := nm.congest[net]; p > 0 {
		now := time.Now()
		if now.Sub(nm.congMark[net]) > congestionWindow {
			nm.congMark[net] = now
			nm.congCount[net] = 0
		}
		nm.congCount[net]++
		factor := float64(nm.congCount[net]) / congestionFull
		if factor > 1 {
			factor = 1
		}
		if nm.rng.Float64() < p*factor {
			return sendVerdict{drop: true}
		}
	}
	var v sendVerdict
	if nm.pathFiltered(net) {
		if dest == proto.BroadcastID {
			for _, p := range peers {
				if nm.pathAllowed(from, p, net) {
					v.expand = append(v.expand, p)
				}
			}
			if len(v.expand) == 0 {
				return sendVerdict{drop: true}
			}
		} else if !nm.pathAllowed(from, dest, net) {
			return sendVerdict{drop: true}
		}
	}
	if nm.p.Dup > 0 && nm.rng.Float64() < nm.p.Dup {
		v.dup = true
	}
	if p := nm.dupProb[net]; p > 0 && nm.rng.Float64() < p {
		v.dup = true
	}
	if nm.p.DelayProb > 0 && nm.rng.Float64() < nm.p.DelayProb {
		span := nm.p.DelayMax - nm.p.DelayMin
		v.delay = nm.p.DelayMin
		if span > 0 {
			v.delay += time.Duration(nm.rng.Int63n(int64(span)))
		}
	}
	if lat := nm.slowLat[net]; lat > 0 && v.delay < lat {
		v.delay = lat
	}
	return v
}

// dropRecv reports whether node id must discard a datagram received on
// network net (receive-side faults: blocked interface or dead network).
func (nm *Netem) dropRecv(id proto.NodeID, net int) bool {
	nm.mu.Lock()
	defer nm.mu.Unlock()
	if net < 0 || net >= nm.networks {
		return true
	}
	if nm.down[net] {
		return true
	}
	b := nm.blockRecv[id]
	return b != nil && b[net]
}

// Impaired wraps one node's Transport with the cluster's Netem: sends are
// dropped, duplicated, delayed or partition-filtered on the way into the
// inner transport, and receives are filtered against the receive-side
// faults. It satisfies transport.Transport, so a real totem.Node runs on
// it unchanged.
type Impaired struct {
	inner transport.Transport
	id    proto.NodeID
	// peers lists every other node, for sender-side broadcast expansion
	// under a partition.
	peers []proto.NodeID
	nm    *Netem

	// sendMu serialises inner.Send between the runtime's loop goroutine
	// and delayed-send timers (the inner Send contract is
	// single-goroutine).
	sendMu sync.Mutex

	rx        chan transport.Packet
	closeOnce sync.Once
	closed    chan struct{}
}

var _ transport.Transport = (*Impaired)(nil)

// Impair wraps inner for node id. peers must list every other node in
// the cluster.
func Impair(inner transport.Transport, id proto.NodeID, peers []proto.NodeID, nm *Netem) *Impaired {
	t := &Impaired{
		inner:  inner,
		id:     id,
		peers:  peers,
		nm:     nm,
		rx:     make(chan transport.Packet, 1024),
		closed: make(chan struct{}),
	}
	go t.pump()
	return t
}

// Networks implements transport.Transport.
func (t *Impaired) Networks() int { return t.inner.Networks() }

// Send implements transport.Transport, applying the impairment verdict.
// Impairment drops report success, like a lossy wire.
func (t *Impaired) Send(network int, dest proto.NodeID, data []byte) error {
	if t.nm.shardFaultsActive() {
		if sh, _, err := wire.PeekShard(data); err == nil && t.nm.dropShardSend(t.id, sh) {
			return nil
		}
	}
	v := t.nm.judgeSend(t.id, dest, network, t.peers)
	if v.drop {
		return nil
	}
	if v.delay > 0 {
		// The caller may recycle data as soon as Send returns, so a
		// delayed datagram needs its own copy.
		var cp []byte
		if len(data) <= wire.FrameCap {
			cp = append(wire.GetFrame(), data...)
		} else {
			cp = append([]byte(nil), data...)
		}
		time.AfterFunc(v.delay, func() {
			select {
			case <-t.closed:
			default:
				t.deliver(network, dest, cp, v)
			}
			wire.PutFrame(cp)
		})
		return nil
	}
	t.deliver(network, dest, data, v)
	return nil
}

// deliver pushes one (possibly duplicated, possibly partition-expanded)
// datagram into the inner transport.
func (t *Impaired) deliver(network int, dest proto.NodeID, data []byte, v sendVerdict) {
	t.sendMu.Lock()
	defer t.sendMu.Unlock()
	n := 1
	if v.dup {
		n = 2
	}
	for i := 0; i < n; i++ {
		if v.expand != nil {
			for _, p := range v.expand {
				t.inner.Send(network, p, data) //nolint:errcheck
			}
		} else {
			t.inner.Send(network, dest, data) //nolint:errcheck
		}
	}
}

// pump filters the inner receive stream against receive-side faults.
func (t *Impaired) pump() {
	defer close(t.rx)
	for pkt := range t.inner.Packets() {
		if t.nm.dropRecv(t.id, pkt.Network) {
			wire.ReleaseFrame(pkt.Data)
			continue
		}
		if t.nm.shardFaultsActive() {
			if sh, _, err := wire.PeekShard(pkt.Data); err == nil && t.nm.dropShardRecv(t.id, sh) {
				wire.PutFrame(pkt.Data)
				continue
			}
		}
		select {
		case t.rx <- pkt:
		case <-t.closed:
			wire.ReleaseFrame(pkt.Data)
			// Keep draining so the inner transport can shut down.
		}
	}
}

// Packets implements transport.Transport.
func (t *Impaired) Packets() <-chan transport.Packet { return t.rx }

// Flush implements transport.BatchSender by forwarding to the inner
// transport, so the runtime's per-action-batch flush reaches the batched
// UDP wire path through the impairment layer. Datagrams a netem delay is
// still holding are not affected — they enter the inner transport later
// and ride its deadline backstop, exactly like late traffic from a real
// switch.
func (t *Impaired) Flush() {
	if bs, ok := t.inner.(transport.BatchSender); ok {
		bs.Flush()
	}
}

// RegisterMetrics implements transport.MetricSource by forwarding, so a
// live node's registry carries the inner transport's wire counters
// (udp.netI.*).
func (t *Impaired) RegisterMetrics(reg *metrics.Registry) {
	if ms, ok := t.inner.(transport.MetricSource); ok {
		ms.RegisterMetrics(reg)
	}
}

// Close implements transport.Transport, closing the inner transport too
// (the harness owns both).
func (t *Impaired) Close() error {
	var err error
	t.closeOnce.Do(func() {
		close(t.closed)
		err = t.inner.Close()
	})
	return err
}
