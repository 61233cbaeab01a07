package srp

import (
	"github.com/totem-rrp/totem/internal/proto"
	"github.com/totem-rrp/totem/internal/wire"
)

// The membership protocol follows the Totem SRP design (paper §2; Amir et
// al. 1995): a node that loses the token (or hears a join) enters Gather
// and broadcasts join messages carrying its proc and fail sets; when every
// reachable processor advertises identical sets, consensus is reached and
// the representative (smallest ID) circulates a commit token around the
// proposed ring — the first pass collects each member's old-ring state,
// the second pass moves everyone into Recovery, where old-ring messages
// are exchanged on the new ring before the configuration is installed
// with extended-virtual-synchrony delivery guarantees.

// enterGather moves the machine into the Gather state. extraProc and
// extraFail fold in information from a triggering join; both may be nil.
func (m *Machine) enterGather(now proto.Time, extraProc, extraFail nodeSet) {
	switch m.state {
	case StateOperational:
		m.snapshotOld()
		m.procSet = newNodeSet(m.cfg.ID).union(m.members)
		m.failSet = nil
	case StateIdle:
		m.procSet = newNodeSet(m.cfg.ID)
		m.failSet = nil
	case StateGather, StateCommit, StateRecovery:
		// Keep the sets accumulated in this membership episode.
		if m.state == StateCommit || m.state == StateRecovery {
			m.abortPending()
		}
		m.procSet = m.procSet.add(m.cfg.ID)
	}
	m.procSet = m.procSet.union(extraProc)
	m.failSet = m.failSet.union(extraFail)
	m.cancelOperationalTimers()
	m.acts.CancelTimer(proto.TimerID{Class: proto.TimerCommitRetransmit})
	m.setState(StateGather)
	m.joinsSeen = map[proto.NodeID]bool{m.cfg.ID: true}
	m.consensus = map[proto.NodeID]bool{m.cfg.ID: true}
	m.sendJoin()
	m.acts.SetTimer(proto.TimerID{Class: proto.TimerJoin}, m.cfg.JoinInterval)
	m.acts.SetTimer(proto.TimerID{Class: proto.TimerConsensus}, m.cfg.ConsensusTimeout)
	m.checkConsensus(now, false)
}

// snapshotOld preserves the operational ring's state for recovery.
func (m *Machine) snapshotOld() {
	m.old = &oldRing{
		ring:        m.ring,
		members:     m.members.clone(),
		rx:          m.rx,
		aru:         m.myAru,
		high:        m.highSeq,
		deliveredTo: m.deliveredTo,
		asm:         m.asm,
	}
	// The old ring keeps its packets (and the window's buffer); they fall
	// to the GC with m.old rather than returning to the free list.
	m.rx = rxWindow{}
	m.asm = wire.NewAssembler()
}

// abortPending discards an uncommitted configuration attempt; the old-ring
// snapshot (if any) is retained for the next recovery.
func (m *Machine) abortPending() {
	m.commitPhase = 0
	m.pendingCommit = nil
	m.lastCommitSent = nil
	m.commitDest = 0
	m.commitRetries = 0
	m.commitWaiting = false
	m.recQueue = nil
	m.acts.CancelTimer(proto.TimerID{Class: proto.TimerCommitRetransmit})
}

// sendJoin broadcasts the current proc and fail sets.
func (m *Machine) sendJoin() {
	j := &wire.JoinPacket{
		Sender:  m.cfg.ID,
		RingSeq: m.maxEpoch,
		ProcSet: m.procSet,
		FailSet: m.failSet,
	}
	data, err := j.Encode()
	if err != nil {
		return // sets exceed wire caps; nothing sensible to do
	}
	m.out.Broadcast(data)
}

// onJoin processes a join message in any state.
func (m *Machine) onJoin(now proto.Time, j *wire.JoinPacket) {
	if j.Sender == m.cfg.ID {
		return // our own join echoed back through a redundant network
	}
	if j.RingSeq < m.joinEpoch[j.Sender] {
		// Stale copy from an episode the sender has since concluded (its
		// epoch advanced when it installed a ring). Its proc and fail sets
		// describe a dead round; merging them would poison the current one.
		return
	}
	m.joinEpoch[j.Sender] = j.RingSeq
	if j.RingSeq > m.maxEpoch {
		m.maxEpoch = j.RingSeq
	}
	jProc := newNodeSet(j.ProcSet...).add(j.Sender)
	jFail := newNodeSet(j.FailSet...)
	if jFail.contains(m.cfg.ID) {
		// The sender is forming a configuration that excludes us. We can
		// never agree to a fail set containing ourselves (adopting it is
		// what would livelock two singletons failing each other), so we
		// part ways: ignore the round if we are operational, and treat
		// the split as mutual if we are mid-gather — the two rings merge
		// in a later, fresh episode.
		if m.state == StateOperational || m.state == StateIdle {
			return
		}
		jFail = jFail.minus(newNodeSet(m.cfg.ID)).add(j.Sender)
	}

	switch m.state {
	case StateIdle:
		return
	case StateOperational:
		// Stale duplicates from the round that formed the current ring
		// carry an epoch below ours; a member advertising our epoch (or
		// a stranger) genuinely wants a new configuration.
		if m.members.contains(j.Sender) && j.RingSeq < m.ring.Epoch {
			return
		}
		m.enterGather(now, jProc, jFail)
		m.mergeJoin(now, j, jProc, jFail)
	case StateCommit, StateRecovery:
		// Ignore joins that add nothing beyond the gather round that led
		// here — they are duplicates still in flight.
		known := m.procSet.union(m.failSet)
		if known.containsAll(jProc) && m.failSet.containsAll(jFail) {
			return
		}
		m.enterGather(now, jProc, jFail)
		m.mergeJoin(now, j, jProc, jFail)
	case StateGather:
		m.mergeJoin(now, j, jProc, jFail)
	}
}

// mergeJoin folds a join into the gather state and re-evaluates consensus.
func (m *Machine) mergeJoin(now proto.Time, j *wire.JoinPacket, jProc, jFail nodeSet) {
	if m.state != StateGather {
		return // enterGather may have short-circuited into a ring
	}
	newInfo := !m.procSet.containsAll(jProc) || !m.failSet.containsAll(jFail)
	if newInfo {
		m.procSet = m.procSet.union(jProc)
		m.failSet = m.failSet.union(jFail)
		m.consensus = map[proto.NodeID]bool{m.cfg.ID: true}
		m.sendJoin()
		m.acts.SetTimer(proto.TimerID{Class: proto.TimerConsensus}, m.cfg.ConsensusTimeout)
	}
	m.joinsSeen[j.Sender] = true
	m.consensus[j.Sender] = jProc.equal(m.procSet) && jFail.equal(m.failSet)
	m.checkConsensus(now, false)
}

// onConsensusTimeout declares every processor that has not reached
// consensus with us — silent or still disagreeing — failed, and retries
// the round with the remainder. A processor that crashed mid-round (after
// sending joins) is caught here just like one that never answered.
func (m *Machine) onConsensusTimeout(now proto.Time) {
	var failed nodeSet
	for _, p := range m.procSet.minus(m.failSet) {
		if !m.consensus[p] {
			failed = failed.add(p)
		}
	}
	if len(failed) > 0 {
		m.failSet = m.failSet.union(failed)
		m.consensus = map[proto.NodeID]bool{m.cfg.ID: true}
	}
	m.sendJoin()
	m.acts.SetTimer(proto.TimerID{Class: proto.TimerConsensus}, m.cfg.ConsensusTimeout)
	m.checkConsensus(now, true)
}

// checkConsensus installs a singleton, creates the commit token (as
// representative) or waits for it (as member) once every reachable
// processor advertises identical sets. timedOut is true when the call
// comes from the consensus timer rather than from a received join.
func (m *Machine) checkConsensus(now proto.Time, timedOut bool) {
	cands := m.procSet.minus(m.failSet)
	if !cands.contains(m.cfg.ID) {
		// Defensive: our own fail set should never contain us, but if it
		// does, restart the round alone and wait out a consensus period
		// rather than installing rings in a tight loop.
		m.procSet = newNodeSet(m.cfg.ID)
		m.failSet = nil
		m.joinsSeen = map[proto.NodeID]bool{m.cfg.ID: true}
		m.consensus = map[proto.NodeID]bool{m.cfg.ID: true}
		m.sendJoin()
		m.acts.SetTimer(proto.TimerID{Class: proto.TimerConsensus}, m.cfg.ConsensusTimeout)
		return
	}
	for _, p := range cands {
		if !m.consensus[p] {
			return
		}
	}
	if len(cands) == 1 && len(m.procSet) > 1 && !timedOut {
		// Everyone else we know of is in the fail set, typically because a
		// burst of joins carried mutual grudges. Installing the singleton
		// right here would mint a new ring — and a fresh wave of joins —
		// at packet cadence, which under sustained join traffic degenerates
		// into cluster-wide singleton churn thousands of times per second.
		// Hold the episode open until the consensus timer expires instead:
		// the pause absorbs in-flight joins, lets quieter rounds win, and
		// paces worst-case reformations at the consensus timeout.
		return
	}
	m.acts.CancelTimer(proto.TimerID{Class: proto.TimerJoin})
	m.acts.CancelTimer(proto.TimerID{Class: proto.TimerConsensus})
	if len(cands) == 1 {
		m.installSingleton(now)
		return
	}
	if cands[0] == m.cfg.ID {
		m.createCommit(now, cands)
		return
	}
	// Wait for the representative's commit token, bounded by the full
	// retry budget.
	m.setState(StateCommit)
	m.commitWaiting = true
	m.lastCommitSent = nil
	m.commitRetries = 0
	wait := commitRetransmitLimit * m.cfg.CommitRetransmitInterval
	m.acts.SetTimer(proto.TimerID{Class: proto.TimerCommitRetransmit}, wait)
}

// createCommit mints the new ring and starts the commit token around it.
func (m *Machine) createCommit(now proto.Time, cands nodeSet) {
	m.maxEpoch++
	ring := proto.RingID{Rep: m.cfg.ID, Epoch: m.maxEpoch}
	entries := make([]wire.CommitEntry, len(cands))
	for i, p := range cands {
		entries[i] = wire.CommitEntry{ID: p}
	}
	c := &wire.CommitToken{Ring: ring, Members: entries}
	m.fillCommitEntry(&c.Members[0])
	c.Members[0].Visits = 1
	m.pendingCommit = c
	m.commitPhase = 1
	m.setState(StateCommit)
	m.commitWaiting = false
	m.forwardCommit(c, 0)
}

// fillCommitEntry records our old-ring position in our commit slot.
func (m *Machine) fillCommitEntry(e *wire.CommitEntry) {
	if m.old != nil {
		e.OldRing = m.old.ring
		e.MyAru = m.old.aru
		e.HighSeq = m.old.high
	}
}

// forwardCommit unicasts the commit token to the next member and arms the
// retransmission timer.
func (m *Machine) forwardCommit(c *wire.CommitToken, myIdx int) {
	dest := c.Members[(myIdx+1)%len(c.Members)].ID
	data, err := c.Encode()
	if err != nil {
		return
	}
	m.out.Unicast(dest, data)
	m.lastCommitSent = data
	m.commitDest = dest
	m.commitRetries = 0
	m.acts.SetTimer(proto.TimerID{Class: proto.TimerCommitRetransmit}, m.cfg.CommitRetransmitInterval)
}

// commitRetransmitLimit bounds commit-token retries before the successor
// is declared failed and Gather restarts.
const commitRetransmitLimit = 5

// onCommitTimeout retries the commit token and ultimately declares the
// successor (or the silent representative) failed.
func (m *Machine) onCommitTimeout(now proto.Time) {
	if m.commitWaiting {
		// The representative never delivered a commit token.
		cands := m.procSet.minus(m.failSet)
		var rep nodeSet
		if len(cands) > 0 && cands[0] != m.cfg.ID {
			rep = newNodeSet(cands[0])
		}
		m.enterGather(now, nil, rep)
		return
	}
	if m.lastCommitSent == nil {
		return
	}
	m.commitRetries++
	if m.commitRetries >= commitRetransmitLimit {
		m.enterGather(now, nil, newNodeSet(m.commitDest))
		return
	}
	m.out.Unicast(m.commitDest, m.lastCommitSent)
	m.acts.SetTimer(proto.TimerID{Class: proto.TimerCommitRetransmit}, m.cfg.CommitRetransmitInterval)
}

// onCommit processes a commit token.
func (m *Machine) onCommit(now proto.Time, c *wire.CommitToken) {
	if c.Ring.Epoch > m.maxEpoch {
		m.maxEpoch = c.Ring.Epoch
	}
	idx := -1
	for i := range c.Members {
		if c.Members[i].ID == m.cfg.ID {
			idx = i
			break
		}
	}
	if idx < 0 {
		return // not our ring
	}
	if m.state != StateGather && m.state != StateCommit && m.state != StateRecovery {
		return
	}
	e := &c.Members[idx]
	if m.pendingCommit != nil && c.Ring == m.pendingCommit.Ring {
		if e.Visits < m.commitPhase {
			return // duplicate copy of an earlier pass
		}
	} else if m.pendingCommit != nil {
		if !m.pendingCommit.Ring.Less(c.Ring) {
			return // older attempt still in flight elsewhere
		}
		if m.state == StateRecovery || m.state == StateCommit {
			m.abortPending()
		}
	}

	switch {
	case e.Visits == 0:
		m.fillCommitEntry(e)
		e.Visits = 1
		m.pendingCommit = c
		m.commitPhase = 1
		m.setState(StateCommit)
		m.commitWaiting = false
		m.acts.CancelTimer(proto.TimerID{Class: proto.TimerJoin})
		m.acts.CancelTimer(proto.TimerID{Class: proto.TimerConsensus})
		m.forwardCommit(c, idx)
	case e.Visits == 1:
		e.Visits = 2
		m.pendingCommit = c
		m.commitPhase = 2
		m.beginRecovery(now, c)
		m.forwardCommit(c, idx)
	default:
		// Third arrival at the representative: the whole ring is in
		// Recovery; emit the first ring token.
		if m.cfg.ID == c.Ring.Rep && m.commitPhase == 2 &&
			m.pendingCommit != nil && c.Ring == m.pendingCommit.Ring {
			m.commitPhase = 3
			m.sendFirstToken(now)
		}
	}
}

// installSingleton forms a ring containing only this node.
func (m *Machine) installSingleton(now proto.Time) {
	m.abortPending()
	m.maxEpoch++
	m.ring = proto.RingID{Rep: m.cfg.ID, Epoch: m.maxEpoch}
	m.members = newNodeSet(m.cfg.ID)
	m.resetRingState()
	m.deliverOldAndInstall(now)
	if !m.packer.Empty() {
		m.flushSingleton(now)
	}
}
