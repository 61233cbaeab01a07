package srp

import (
	"fmt"

	"github.com/totem-rrp/totem/internal/bulk"
	"github.com/totem-rrp/totem/internal/core"
	"github.com/totem-rrp/totem/internal/metrics"
	"github.com/totem-rrp/totem/internal/proto"
	"github.com/totem-rrp/totem/internal/wire"
)

// Outbound is the downward interface of the SRP machine. The RRP layer
// implements it, mapping each logical send onto one or more of the
// redundant networks (paper §4–§7).
type Outbound interface {
	// Broadcast sends an encoded packet to every ring member.
	Broadcast(data []byte)
	// Unicast sends an encoded packet (the token) to one ring member.
	Unicast(dest proto.NodeID, data []byte)
}

// State is the membership-protocol state of the machine.
type State int

// Machine states.
const (
	// StateIdle is the pre-Start state.
	StateIdle State = iota + 1
	// StateOperational is normal token-ring operation.
	StateOperational
	// StateGather is the join/consensus phase of membership.
	StateGather
	// StateCommit circulates the commit token around the proposed ring.
	StateCommit
	// StateRecovery exchanges old-ring messages on the new ring before the
	// configuration is installed.
	StateRecovery
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateOperational:
		return "operational"
	case StateGather:
		return "gather"
	case StateCommit:
		return "commit"
	case StateRecovery:
		return "recovery"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

type tokenKey struct {
	seq      uint32
	rotation uint32
}

// newer reports whether k is a strictly newer token generation than o.
func (k tokenKey) newer(o tokenKey) bool {
	return k.seq > o.seq || (k.seq == o.seq && k.rotation > o.rotation)
}

// oldRing snapshots the state of the previous configuration while a new
// one is being formed; recovery drains it.
type oldRing struct {
	ring        proto.RingID
	members     nodeSet
	rx          map[uint32]*wire.DataPacket
	aru         uint32
	high        uint32
	deliveredTo uint32
	asm         *wire.Assembler
}

// Machine is the Totem single-ring protocol engine for one node. It is not
// safe for concurrent use; the stack serialises all calls.
type Machine struct {
	cfg  Config
	out  Outbound
	acts *proto.Actions

	state    State
	ring     proto.RingID
	members  nodeSet
	maxEpoch uint32

	// Operational ring state.
	packer           wire.Packer
	asm              *wire.Assembler
	rx               map[uint32]*wire.DataPacket
	myAru            uint32
	highSeq          uint32
	deliveredTo      uint32
	safeTo           uint32
	prevTokenAru     uint32
	havePrevTokenAru bool
	prevSent         uint32
	prevBacklog      uint32

	lastTokenSeen    tokenKey
	seenAnyToken     bool
	lastTokenSent    []byte
	lastTokenSentKey tokenKey
	tokenRetransOn   bool

	// Bulk lane state.
	bulkRx *bulk.Rx
	// prevBulkBacklog is our previous contribution to the token's
	// BulkBacklog field (same replace-on-visit scheme as prevBacklog).
	prevBulkBacklog uint32
	// bulkBufs maps a broadcast packet's sequence number to the bulk chunk
	// envelope buffers fully emitted in it. The chunks stored in m.rx alias
	// these buffers (retransmissions re-encode from m.rx), so a buffer is
	// recyclable only once its packet is pruned — never at delivery.
	bulkBufs map[uint32][][]byte
	// bulkFree is the recycled-envelope free list SubmitBulk draws from.
	bulkFree [][]byte

	// Gather state.
	procSet   nodeSet
	failSet   nodeSet
	joinsSeen map[proto.NodeID]bool
	consensus map[proto.NodeID]bool
	// joinEpoch is the highest RingSeq seen in a join from each sender.
	// Joins below a sender's high-water mark are from a membership episode
	// the sender has since left (it installed a ring, bumping its epoch)
	// and are dropped: merging them would union long-dead fail sets into
	// the current round, and under heavy packet duplication that stale
	// poison can re-infect every fresh episode and livelock the cluster in
	// singleton churn. This mirrors the ring sequence number filtering of
	// Totem's join messages. Unlike the per-episode gather sets, the map
	// persists across episodes — that is its entire point.
	joinEpoch map[proto.NodeID]uint32

	// Commit / recovery state.
	commitPhase    uint8 // 0 none, 1 filled, 2 recovering, 3 token emitted
	pendingCommit  *wire.CommitToken
	lastCommitSent []byte
	commitDest     proto.NodeID
	commitRetries  int
	commitWaiting  bool // in Commit without having forwarded yet

	old         *oldRing
	recQueue    [][]byte    // encoded old packets awaiting re-broadcast
	quietSetter bool        // rep: we have set TokenFlagQuiet at least once
	heldToken   *wire.Token // idle-ring token held by the representative

	ctr counters
}

// maxBulkPartials bounds concurrent in-progress inbound bulk transfers.
const maxBulkPartials = 16

// NewMachine builds a machine. It validates cfg and panics on programmer
// error (nil interfaces); configuration errors are returned.
func NewMachine(cfg Config, out Outbound, acts *proto.Actions) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if out == nil || acts == nil {
		return nil, fmt.Errorf("%w: nil outbound or action buffer", ErrBadConfig)
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	if cfg.SeqRollover == 0 {
		// Hand-built configs predating the field keep working: zero means
		// the default limit, never "no limit".
		cfg.SeqRollover = DefaultSeqRollover
	}
	// Bulk-lane knobs follow the same zero-means-default rule.
	if cfg.BulkMaxPerVisit == 0 {
		cfg.BulkMaxPerVisit = DefaultBulkMaxPerVisit
	}
	if cfg.BulkYieldPerVisit == 0 {
		cfg.BulkYieldPerVisit = DefaultBulkYieldPerVisit
	}
	if cfg.BulkYieldPerVisit > cfg.BulkMaxPerVisit {
		cfg.BulkYieldPerVisit = cfg.BulkMaxPerVisit
	}
	if cfg.MaxBulkTransfer == 0 {
		cfg.MaxBulkTransfer = DefaultMaxBulkTransfer
	}
	m := &Machine{
		cfg:       cfg,
		out:       out,
		acts:      acts,
		state:     StateIdle,
		maxEpoch:  cfg.InitialEpoch,
		asm:       wire.NewAssembler(),
		rx:        make(map[uint32]*wire.DataPacket),
		joinEpoch: make(map[proto.NodeID]uint32),
		bulkRx:    bulk.NewRx(cfg.MaxBulkTransfer, maxBulkPartials),
		bulkBufs:  make(map[uint32][][]byte),
		ctr:       newCounters(reg),
	}
	m.packer.CollectFinished(true)
	return m, nil
}

// ID returns this node's identifier.
func (m *Machine) ID() proto.NodeID { return m.cfg.ID }

// State returns the current membership state.
func (m *Machine) State() State { return m.state }

// Ring returns the current (or pending, during recovery) ring identifier.
func (m *Machine) Ring() proto.RingID { return m.ring }

// MaxEpoch returns the highest ring epoch this machine has seen or used.
// Drivers that model node restart feed it back via Config.InitialEpoch so
// the new incarnation never reuses a RingID (Totem's stable-storage ring
// sequence number).
func (m *Machine) MaxEpoch() uint32 { return m.maxEpoch }

// Members returns the current membership (sorted). The returned slice is a
// copy.
func (m *Machine) Members() []proto.NodeID {
	return append([]proto.NodeID(nil), m.members...)
}

// setState records a membership phase transition, emitting a probe event
// so phase changes are observable without polling.
func (m *Machine) setState(s State) {
	if m.state == s {
		return
	}
	m.acts.Probe(proto.ProbePhase, -1, int64(m.state), int64(s), 0)
	m.state = s
}

// Backlog returns the number of queued, not yet broadcast application
// messages.
func (m *Machine) Backlog() int { return m.packer.Backlog() }

// MissingBefore reports whether this node is missing any packet with
// sequence number at or below seq on the current ring. The passive RRP
// layer consults it before passing a token up (paper §6, requirement P1).
// The plain < comparison is wraparound-safe because Config.SeqRollover
// caps ring sequence numbers well below the uint32 range.
func (m *Machine) MissingBefore(seq uint32) bool {
	if m.state != StateOperational && m.state != StateRecovery {
		return false
	}
	return m.myAru < seq
}

// Start brings the node up: it immediately attempts to form a ring by
// entering the Gather state (forming a singleton ring if alone).
func (m *Machine) Start(now proto.Time) {
	if m.state != StateIdle {
		return
	}
	m.enterGather(now, nil, nil)
}

// Submit queues an application message for totally-ordered broadcast. It
// returns false when the send queue is full (backpressure) or the machine
// has not started.
func (m *Machine) Submit(now proto.Time, payload []byte) bool {
	if m.state == StateIdle {
		return false
	}
	if m.packer.Backlog() >= m.cfg.MaxQueued {
		m.ctr.submitRejected.Inc()
		m.acts.Probe(proto.ProbeFlowStall, -1, int64(m.packer.Backlog()), 0, 0)
		return false
	}
	m.packer.Enqueue(payload)
	m.ctr.submitted.Inc()
	if m.state == StateOperational && len(m.members) == 1 {
		m.flushSingleton(now)
	} else if m.heldToken != nil {
		// We are holding the token on an idle ring: use it right away.
		m.releaseHeldToken(true)
	}
	return true
}

// maxQueuedBulk caps the bulk-lane send queue (chunks). The sender-side
// window of a transfer is far smaller, so this only trips when many
// transfers run at once.
const maxQueuedBulk = 256

// SubmitBulk queues one chunk of a bulk transfer on the rate-limited bulk
// lane. The chunk is wrapped in the bulk envelope (transfer id, byte
// offset, total length) into a recycled buffer; data is copied and may be
// reused by the caller immediately. It returns false under backpressure
// (bulk queue full) or before Start — the sender-side manager retries with
// its bounded per-chunk budget.
func (m *Machine) SubmitBulk(now proto.Time, id, off, total uint64, data []byte) bool {
	if m.state == StateIdle {
		return false
	}
	if m.packer.BulkBacklog() >= maxQueuedBulk {
		m.ctr.bulkRejected.Inc()
		m.acts.Probe(proto.ProbeFlowStall, -1, int64(m.packer.BulkBacklog()), 1, 0)
		return false
	}
	var buf []byte
	if n := len(m.bulkFree); n > 0 {
		buf = m.bulkFree[n-1][:0]
		m.bulkFree = m.bulkFree[:n-1]
	}
	m.packer.EnqueueBulk(bulk.AppendChunk(buf, id, off, total, data))
	m.ctr.bulkSubmitted.Inc()
	if m.state == StateOperational && len(m.members) == 1 {
		m.flushSingleton(now)
	} else if m.heldToken != nil {
		m.releaseHeldToken(true)
	}
	return true
}

// BulkBacklog returns the number of queued, not yet fully broadcast bulk
// chunks.
func (m *Machine) BulkBacklog() int { return m.packer.BulkBacklog() }

// BulkPending returns the number of in-progress inbound bulk transfers.
func (m *Machine) BulkPending() int { return m.bulkRx.Pending() }

// OnPacket processes one packet received from the RRP layer (which has
// already applied token gating and duplicate-copy handling across
// networks).
func (m *Machine) OnPacket(now proto.Time, data []byte) {
	kind, err := wire.PeekKind(data)
	if err != nil {
		return // undecodable noise: drop
	}
	switch kind {
	case wire.KindData:
		if m.heldData(data) {
			m.ctr.duplicates.Inc()
			return
		}
		pkt, err := wire.DecodeData(data)
		if err != nil {
			return
		}
		m.onData(now, pkt)
	case wire.KindToken:
		tok, err := wire.DecodeToken(data)
		if err != nil {
			return
		}
		m.onToken(now, tok)
	case wire.KindJoin:
		j, err := wire.DecodeJoin(data)
		if err != nil {
			return
		}
		m.onJoin(now, j)
	case wire.KindCommit:
		c, err := wire.DecodeCommit(data)
		if err != nil {
			return
		}
		m.onCommit(now, c)
	case wire.KindMergeDetect:
		md, err := wire.DecodeMergeDetect(data)
		if err != nil {
			return
		}
		m.onMergeDetect(now, md)
	}
}

// heldData reports whether an encoded data packet is one onData would
// discard as a duplicate: a packet of this ring, in a state that accepts
// data, that is already delivered or held. Active replication passes every
// network's copy of every packet up, so all but the first copy end here,
// before the decode. Everything else (including the newer-ring packet that
// triggers a rejoin) takes the full decode path.
func (m *Machine) heldData(data []byte) bool {
	if m.state != StateOperational && m.state != StateRecovery {
		return false
	}
	ring, seq, err := wire.PeekDataSeq(data)
	if err != nil || ring != m.ring || seq == 0 {
		return false
	}
	return seq <= m.myAru || m.rx[seq] != nil
}

// OnTimer processes an expired timer.
func (m *Machine) OnTimer(now proto.Time, id proto.TimerID) {
	switch id.Class {
	case proto.TimerTokenLoss:
		if m.state == StateOperational || m.state == StateRecovery {
			m.ctr.tokenLosses.Inc()
			m.acts.Probe(proto.ProbeTokenLoss, -1, int64(m.lastTokenSeen.seq), 0, 0)
			m.enterGather(now, nil, nil)
		}
	case proto.TimerTokenRetransmit:
		if m.tokenRetransOn && m.lastTokenSent != nil {
			m.out.Unicast(m.successor(), m.lastTokenSent)
			m.ctr.tokenRetransmits.Inc()
			m.acts.SetTimer(proto.TimerID{Class: proto.TimerTokenRetransmit}, m.cfg.TokenRetransmitInterval)
		}
	case proto.TimerJoin:
		if m.state == StateGather {
			m.sendJoin()
			m.acts.SetTimer(proto.TimerID{Class: proto.TimerJoin}, m.cfg.JoinInterval)
		}
	case proto.TimerConsensus:
		if m.state == StateGather {
			m.onConsensusTimeout(now)
		}
	case proto.TimerCommitRetransmit:
		if m.state == StateCommit || m.state == StateRecovery {
			m.onCommitTimeout(now)
		}
	case proto.TimerMergeDetect:
		if m.state == StateOperational && m.isRep() {
			m.sendMergeDetect()
			m.acts.SetTimer(proto.TimerID{Class: proto.TimerMergeDetect}, m.cfg.MergeDetectInterval)
		}
	case proto.TimerTokenHold:
		m.releaseHeldToken(false)
	}
}

// successor returns the next member on the ring after this node.
func (m *Machine) successor() proto.NodeID {
	if len(m.members) == 0 {
		return m.cfg.ID
	}
	for i, id := range m.members {
		if id == m.cfg.ID {
			return m.members[(i+1)%len(m.members)]
		}
	}
	return m.members[0]
}

// isRep reports whether this node is the ring representative (the member
// with the smallest ID, which maintains the rotation counter and drives
// the recovery handshake).
func (m *Machine) isRep() bool {
	return len(m.members) > 0 && m.members[0] == m.cfg.ID
}

// resetRingState clears the per-ring sequencing state when a new ring's
// sequence space begins (at the transition into Recovery).
func (m *Machine) resetRingState() {
	m.heldToken = nil
	m.acts.CancelTimer(proto.TimerID{Class: proto.TimerTokenHold})
	m.rx = make(map[uint32]*wire.DataPacket)
	m.myAru = 0
	m.highSeq = 0
	m.deliveredTo = 0
	m.safeTo = 0
	m.prevTokenAru = 0
	m.havePrevTokenAru = false
	m.prevSent = 0
	m.prevBacklog = 0
	// Resetting the duplicate-token filter here is what makes the machine
	// self-stabilizing against a corrupted filter: a poisoned (future)
	// filter discards every genuine token, the token-loss timeout forces a
	// reformation, and the new ring starts with a clean filter. The chaos
	// flag reverts exactly that reset so the torture harness can prove its
	// bounded-recovery invariant notices when the escape hatch is gone.
	if !core.Chaos.FrozenTokenFilter {
		m.seenAnyToken = false
		m.lastTokenSeen = tokenKey{}
	}
	m.lastTokenSent = nil
	m.tokenRetransOn = false
	m.asm.Reset()
	m.quietSetter = false
	// A message caught mid-fragmentation by the ring change must restart
	// whole: the new ring's receivers have fresh reassembly state, so
	// continuing from the cursor would broadcast a continuation with no
	// start and the message would silently vanish everywhere. Rewinding
	// re-emits it from the beginning on the new ring — delivered exactly
	// once, since the old ring's partial prefix completes nowhere.
	m.packer.Rewind()
	m.prevBulkBacklog = 0
	// Envelope buffers harvested on the old ring may still be aliased by
	// old-ring packets (snapshotOld moved m.rx into m.old); drop them to
	// the GC instead of recycling.
	clear(m.bulkBufs)
}

// cancelOperationalTimers disarms the token timers.
func (m *Machine) cancelOperationalTimers() {
	m.acts.CancelTimer(proto.TimerID{Class: proto.TimerTokenLoss})
	m.acts.CancelTimer(proto.TimerID{Class: proto.TimerTokenRetransmit})
	m.acts.CancelTimer(proto.TimerID{Class: proto.TimerTokenHold})
	m.tokenRetransOn = false
	m.heldToken = nil
}
