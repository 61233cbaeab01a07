package srp

import (
	"github.com/totem-rrp/totem/internal/proto"
	"github.com/totem-rrp/totem/internal/wire"
)

// onData processes a data packet.
func (m *Machine) onData(now proto.Time, pkt *wire.DataPacket) {
	if pkt.Ring != m.ring || (m.state != StateOperational && m.state != StateRecovery) {
		// A packet from a strictly newer configuration means we missed a
		// membership change (e.g. we were partitioned out): rejoin.
		if m.state == StateOperational && pkt.Ring.Epoch > m.ring.Epoch {
			m.enterGather(now, nil, nil)
		}
		return
	}
	seq := pkt.Seq
	if seq == 0 {
		return
	}
	if seq <= m.myAru || m.rx[seq] != nil {
		m.ctr.duplicates.Inc()
		return
	}
	m.rx[seq] = pkt
	if seq > m.highSeq {
		m.highSeq = seq
	}
	for m.rx[m.myAru+1] != nil {
		m.myAru++
	}
	m.ctr.packetsReceived.Inc()

	if pkt.Flags&wire.FlagRecovery != 0 {
		m.unwrapRecovery(pkt)
	}

	// Evidence that our last token was received: a packet with a higher
	// sequence number must have been sent by a node downstream of it
	// (paper §2).
	if m.tokenRetransOn && seq > m.lastTokenSentKey.seq {
		m.acts.CancelTimer(proto.TimerID{Class: proto.TimerTokenRetransmit})
		m.tokenRetransOn = false
	}

	if m.state == StateOperational {
		m.deliverPending(now)
	}
}

// deliverPending delivers every contiguous packet up to the delivery
// horizon, reassembling packed and fragmented messages. Bulk-lane chunks
// route into the bulk receiver instead of surfacing individually.
func (m *Machine) deliverPending(now proto.Time) {
	horizon := m.myAru
	if m.cfg.Delivery == DeliverSafe && m.safeTo < horizon {
		horizon = m.safeTo
	}
	for s := m.deliveredTo + 1; s <= horizon; s++ {
		pkt := m.rx[s]
		if pkt == nil {
			// Below myAru every packet is present unless already pruned;
			// pruning never outruns deliveredTo, so this is unreachable,
			// but guard anyway.
			break
		}
		m.deliveredTo = s
		if pkt.Flags&wire.FlagRecovery != 0 {
			// Recovery packets carry old-ring payload delivered by
			// completeRecovery; they occupy sequence numbers only.
			continue
		}
		for _, c := range pkt.Chunks {
			msg, ok := m.asm.Add(pkt.Sender, c)
			if !ok {
				continue
			}
			if c.Flags&wire.ChunkBulk != 0 {
				m.onBulkMessage(now, pkt.Ring, pkt.Sender, s, msg, false)
				continue
			}
			m.ctr.msgsDelivered.Inc()
			m.ctr.bytesDelivered.Add(uint64(len(msg)))
			m.acts.Deliver(proto.Delivery{
				Ring:    pkt.Ring,
				Sender:  pkt.Sender,
				Seq:     s,
				Payload: msg,
			})
		}
	}
	m.countReassemblyDrops(m.asm)
}

// countReassemblyDrops moves an assembler's drop count into the registry.
func (m *Machine) countReassemblyDrops(a *wire.Assembler) {
	if a.Dropped > 0 {
		m.ctr.reassemblyDropped.Add(uint64(a.Dropped))
		a.Dropped = 0
	}
}

// prune discards retained packets that are both delivered and known safe
// (every member holds them), so no retransmission can ever be requested.
func (m *Machine) prune() {
	horizon := m.safeTo
	if m.deliveredTo < horizon {
		horizon = m.deliveredTo
	}
	// The map holds at most window-size packets above the horizon, so a
	// sweep keyed on presence is cheap.
	for s := range m.rx {
		if s <= horizon {
			delete(m.rx, s)
		}
	}
	// A pruned packet can never be re-encoded for retransmission, so the
	// bulk envelope buffers its chunks aliased are now recyclable.
	for s, bufs := range m.bulkBufs {
		if s > horizon {
			continue
		}
		for _, b := range bufs {
			if len(m.bulkFree) < 64 {
				m.bulkFree = append(m.bulkFree, b)
			}
		}
		delete(m.bulkBufs, s)
	}
}

// flushSingleton broadcasts and delivers queued messages immediately when
// this node is the only ring member: no token circulation is needed.
func (m *Machine) flushSingleton(now proto.Time) {
	for !m.packer.Empty() {
		chunks := m.packer.NextChunks()
		if chunks == nil {
			break
		}
		seq := m.highSeq + 1
		pkt := &wire.DataPacket{Ring: m.ring, Sender: m.cfg.ID, Seq: seq, Chunks: chunks}
		m.rx[seq] = pkt
		m.highSeq = seq
		m.myAru = seq
		m.ctr.packetsSent.Inc()
		if bufs := m.packer.TakeFinishedBulk(); len(bufs) > 0 {
			m.bulkBufs[seq] = append(m.bulkBufs[seq], bufs...)
		}
	}
	m.safeTo = m.myAru
	m.deliverPending(now)
	m.prune()
	// A singleton ring has no token to carry the sequence number past the
	// representative, so the rollover check lives here instead.
	if m.highSeq >= m.cfg.SeqRollover {
		m.rolloverRing(now, m.highSeq)
	}
}

// rolloverRing abandons an operational ring whose sequence space is about
// to run out: reforming mints a new epoch and restarts sequence numbers at
// zero (paper's ring sequence number semantics), which is what keeps the
// machine's plain uint32 sequence comparisons safe without serial-number
// arithmetic.
func (m *Machine) rolloverRing(now proto.Time, seq uint32) {
	m.acts.Probe(proto.ProbeSeqRollover, -1, int64(seq), int64(m.cfg.SeqRollover), 0)
	m.enterGather(now, nil, nil)
}

// broadcastPacket encodes, self-stores and broadcasts one data packet,
// advancing the token sequence number.
func (m *Machine) broadcastPacket(tok *wire.Token, flags uint8, chunks []wire.Chunk) bool {
	seq := tok.Seq + 1
	pkt := &wire.DataPacket{Ring: m.ring, Sender: m.cfg.ID, Seq: seq, Flags: flags, Chunks: chunks}
	// Data packets are the steady-state hot path: encode into a pooled
	// frame. Ownership passes to the driver via Broadcast; only the decoded
	// pkt is retained (in m.rx), never the raw bytes.
	data, err := pkt.AppendEncode(wire.GetFrame())
	if err != nil {
		// Programmer error (packer guarantees budget); drop the packet
		// rather than wedge the ring.
		wire.PutFrame(data)
		return false
	}
	tok.Seq = seq
	m.rx[seq] = pkt
	if seq > m.highSeq {
		m.highSeq = seq
	}
	for m.rx[m.myAru+1] != nil {
		m.myAru++
	}
	m.out.Broadcast(data)
	m.ctr.packetsSent.Inc()
	return true
}

// onToken processes the ring token. This is the heart of the SRP: serve
// retransmission requests, request our own gaps, broadcast new traffic
// under flow control, update the all-received-up-to, and forward.
func (m *Machine) onToken(now proto.Time, tok *wire.Token) {
	if tok.Ring != m.ring || (m.state != StateOperational && m.state != StateRecovery) {
		if m.state == StateOperational && tok.Ring.Epoch > m.ring.Epoch {
			m.enterGather(now, nil, nil)
		}
		return
	}
	key := tokenKey{seq: tok.Seq, rotation: tok.Rotation}
	if m.seenAnyToken && !key.newer(m.lastTokenSeen) {
		// A retransmitted copy of a token we already handled (paper §2).
		return
	}
	m.seenAnyToken = true
	m.lastTokenSeen = key
	m.ctr.tokensReceived.Inc()
	wasOperational := m.state == StateOperational

	// Sequence-space exhaustion (documented limit, Config.SeqRollover):
	// the representative retires the ring before uint32 comparisons could
	// wrap. Only the representative triggers, so the ring reforms exactly
	// once; everything undelivered moves across through the normal
	// old-ring recovery exchange. Flow control bounds the overshoot past
	// the limit to WindowSize, keeping all comparisons wrap-free. The
	// rotation counter gets the same treatment: on an idle ring it grows
	// without the sequence number, and letting it wrap would make
	// tokenKey.newer reject the live token until the loss timeout fired.
	if wasOperational && m.isRep() &&
		(tok.Seq >= m.cfg.SeqRollover || tok.Rotation >= m.cfg.SeqRollover) {
		m.rolloverRing(now, tok.Seq)
		return
	}

	m.acts.CancelTimer(proto.TimerID{Class: proto.TimerTokenLoss})
	if m.tokenRetransOn {
		m.acts.CancelTimer(proto.TimerID{Class: proto.TimerTokenRetransmit})
		m.tokenRetransOn = false
	}
	if m.state == StateRecovery {
		// A circulating ring token is the evidence that the commit token
		// completed its passes; stop re-sending it.
		m.acts.CancelTimer(proto.TimerID{Class: proto.TimerCommitRetransmit})
		m.lastCommitSent = nil
	}

	// Recovery completion order: install the configuration before the
	// send stage so newly-unblocked application traffic can flow on this
	// very token visit.
	if m.state == StateRecovery && tok.Flags&wire.TokenFlagOperational != 0 {
		m.completeRecovery(now)
	}

	sent := m.serveRetransmissions(tok)
	m.requestRetransmissions(tok)
	sent += m.sendNewTraffic(tok)
	m.updateARU(tok)

	// Safe-delivery horizon: a packet is known safe once the token ARU
	// has covered it on two consecutive visits.
	if m.havePrevTokenAru {
		cand := min(m.prevTokenAru, tok.ARU)
		if cand > m.safeTo {
			m.safeTo = cand
		}
	}
	m.prevTokenAru = tok.ARU
	m.havePrevTokenAru = true

	// Flow control bookkeeping: replace our previous contribution with
	// the current one (fcc counts packets broadcast during the last
	// rotation; backlog counts queued messages ring-wide).
	tok.FCC = addClamped(tok.FCC, sent, m.prevSent)
	m.prevSent = sent
	queued := uint32(m.packer.Backlog() + len(m.recQueue))
	tok.Backlog = addClamped(tok.Backlog, queued, m.prevBacklog)
	m.prevBacklog = queued
	bulkQueued := uint32(m.packer.BulkBacklog())
	tok.BulkBacklog = addClamped(tok.BulkBacklog, bulkQueued, m.prevBulkBacklog)
	m.prevBulkBacklog = bulkQueued

	if m.isRep() {
		tok.Rotation++
	}

	m.updateRecoveryHandshake(now, tok)
	// Once the Operational flag has served its rotation (we received it
	// while already operational), the representative retires both flags.
	if wasOperational && m.isRep() {
		tok.Flags = 0
	}

	// On a completely idle ring the representative may hold the token
	// briefly to stop it spinning at CPU speed (IdleTokenHold; zero in
	// the simulator and benchmarks).
	idle := m.state == StateOperational && sent == 0 && len(tok.RTR) == 0 &&
		tok.Seq == tok.ARU && m.packer.Empty() && tok.Flags == 0
	if idle && m.isRep() && m.cfg.IdleTokenHold > 0 {
		m.heldToken = tok
		m.acts.SetTimer(proto.TimerID{Class: proto.TimerTokenHold}, m.cfg.IdleTokenHold)
		m.acts.SetTimer(proto.TimerID{Class: proto.TimerTokenLoss}, m.cfg.TokenLossTimeout)
	} else {
		m.forwardToken(tok)
	}
	if m.state == StateOperational {
		m.deliverPending(now)
	}
	// Reclaim retained packets once per visit (the safe horizon only
	// advances at token time, so sweeping more often is wasted work).
	m.prune()
}

// releaseHeldToken forwards a token held on an idle ring; when triggered
// by a submission it first broadcasts the fresh traffic under the normal
// flow-control rules.
func (m *Machine) releaseHeldToken(submitted bool) {
	tok := m.heldToken
	if tok == nil {
		return
	}
	m.heldToken = nil
	m.acts.CancelTimer(proto.TimerID{Class: proto.TimerTokenHold})
	if m.state != StateOperational {
		// Membership moved on while the token was held; the new ring has
		// its own token.
		return
	}
	if submitted && m.state == StateOperational {
		sent := m.sendNewTraffic(tok)
		tok.FCC = addClamped(tok.FCC, sent, 0)
		m.prevSent += sent
		m.updateARU(tok)
	}
	m.forwardToken(tok)
}

// serveRetransmissions re-broadcasts every requested packet we hold and
// removes it from the token's request list. Retransmissions count toward
// the flow-control fcc.
func (m *Machine) serveRetransmissions(tok *wire.Token) uint32 {
	if len(tok.RTR) == 0 {
		return 0
	}
	var sent uint32
	kept := tok.RTR[:0]
	for _, s := range tok.RTR {
		pkt := m.rx[s]
		if pkt == nil {
			kept = append(kept, s)
			continue
		}
		copyPkt := *pkt
		copyPkt.Flags |= wire.FlagRetrans
		data, err := copyPkt.AppendEncode(wire.GetFrame())
		if err != nil {
			wire.PutFrame(data)
			kept = append(kept, s)
			continue
		}
		m.out.Broadcast(data)
		m.ctr.retransmissions.Inc()
		m.acts.Probe(proto.ProbeRetransServed, -1, int64(s), 0, 0)
		sent++
	}
	tok.RTR = kept
	if len(tok.RTR) == 0 {
		tok.RTR = nil
	}
	return sent
}

// requestRetransmissions adds our gaps below the token sequence number to
// the request list (paper §2).
func (m *Machine) requestRetransmissions(tok *wire.Token) {
	if m.myAru >= tok.Seq {
		return
	}
	for s := m.myAru + 1; s <= tok.Seq && len(tok.RTR) < wire.MaxRTR; s++ {
		if m.rx[s] != nil || rtrContains(tok.RTR, s) {
			continue
		}
		tok.RTR = append(tok.RTR, s)
		m.ctr.retransRequested.Inc()
		m.acts.Probe(proto.ProbeRetransRequested, -1, int64(s), 0, 0)
	}
}

func rtrContains(rtr []uint32, s uint32) bool {
	for _, v := range rtr {
		if v == s {
			return true
		}
	}
	return false
}

// sendNewTraffic broadcasts new packets under the flow-control window:
// recovery retransmissions while in Recovery, application traffic while
// Operational.
//
// The bulk lane is additionally paced per visit: packets carrying nothing
// but bulk chunks are capped at BulkMaxPerVisit, dropping to
// BulkYieldPerVisit whenever other members advertise queued interactive
// traffic in the token backlog — a saturating transfer yields the window
// to latency-sensitive messages instead of competing with them. Packets
// that carry any interactive chunk (including mixed packets whose spare
// budget bulk filled) are never charged against the bulk cap, and every
// packet still counts toward the global fcc window.
func (m *Machine) sendNewTraffic(tok *wire.Token) uint32 {
	allowed := m.cfg.MaxPerVisit
	if w := m.cfg.WindowSize - int(tok.FCC); w < allowed {
		allowed = w
	}
	if w := m.cfg.WindowSize - int(tok.Seq-tok.ARU); w < allowed {
		allowed = w
	}
	bulkAllowed := m.cfg.BulkMaxPerVisit
	if int64(tok.Backlog) > int64(m.prevBacklog) {
		// The token backlog minus our own previous contribution is the
		// other members' queued interactive traffic.
		bulkAllowed = m.cfg.BulkYieldPerVisit
	}
	var sent uint32
	for allowed > 0 {
		switch {
		case m.state == StateRecovery:
			if len(m.recQueue) == 0 {
				return sent
			}
			inner := m.recQueue[0]
			chunks := []wire.Chunk{{Flags: wire.ChunkFirst | wire.ChunkLast, Data: inner}}
			if !m.broadcastPacket(tok, wire.FlagRecovery, chunks) {
				m.recQueue = m.recQueue[1:]
				continue
			}
			m.recQueue = m.recQueue[1:]
		case m.state == StateOperational:
			if m.packer.Empty() {
				return sent
			}
			var chunks []wire.Chunk
			if bulkAllowed > 0 {
				chunks = m.packer.NextChunks()
			} else {
				// Bulk budget spent: drain the interactive lane only.
				chunks = m.packer.NextChunksInteractive()
			}
			if chunks == nil {
				return sent
			}
			// Interactive chunks fill first, so a packet whose first chunk
			// is bulk carries only bulk.
			bulkOnly := chunks[0].Flags&wire.ChunkBulk != 0
			if !m.broadcastPacket(tok, 0, chunks) {
				continue
			}
			if bufs := m.packer.TakeFinishedBulk(); len(bufs) > 0 {
				m.bulkBufs[tok.Seq] = append(m.bulkBufs[tok.Seq], bufs...)
			}
			if bulkOnly {
				bulkAllowed--
			}
		default:
			return sent
		}
		sent++
		allowed--
	}
	return sent
}

// updateARU folds our all-received-up-to into the token (paper §2): the
// token ARU converges to the ring-wide minimum within one rotation.
func (m *Machine) updateARU(tok *wire.Token) {
	if m.myAru < tok.Seq {
		switch {
		case tok.ARUID == 0 || tok.ARU > m.myAru:
			tok.ARU = m.myAru
			tok.ARUID = m.cfg.ID
		case tok.ARUID == m.cfg.ID:
			tok.ARU = m.myAru
		}
		return
	}
	if tok.ARUID == m.cfg.ID || tok.ARUID == 0 {
		tok.ARU = tok.Seq
		tok.ARUID = 0
	}
}

// updateRecoveryHandshake runs the quiesce protocol that moves the whole
// ring from Recovery to Operational within two rotations (see DESIGN.md):
// the representative sets Quiet once its recovery traffic has drained; any
// member still recovering clears it; when Quiet survives a full rotation
// the representative flags the token Operational and every member installs
// the configuration as the flag passes.
func (m *Machine) updateRecoveryHandshake(now proto.Time, tok *wire.Token) {
	if m.state != StateRecovery {
		return
	}
	quiesced := len(m.recQueue) == 0 && m.myAru == tok.Seq && tok.ARU == tok.Seq
	if m.isRep() {
		switch {
		case quiesced && tok.Flags&wire.TokenFlagQuiet != 0 && m.quietSetter:
			tok.Flags |= wire.TokenFlagOperational
			m.completeRecovery(now)
		case quiesced:
			tok.Flags |= wire.TokenFlagQuiet
			m.quietSetter = true
		default:
			tok.Flags &^= wire.TokenFlagQuiet
			m.quietSetter = false
		}
		return
	}
	if !quiesced {
		tok.Flags &^= wire.TokenFlagQuiet
	}
}

// forwardToken encodes and unicasts the token to the successor, arming the
// retransmission and loss timers.
func (m *Machine) forwardToken(tok *wire.Token) {
	data, err := tok.Encode()
	if err != nil {
		// RTR list is capped at MaxRTR, so encoding cannot fail; guard to
		// keep the ring alive regardless.
		tok.RTR = nil
		if data, err = tok.Encode(); err != nil {
			return
		}
	}
	m.out.Unicast(m.successor(), data)
	m.ctr.tokensSent.Inc()
	m.lastTokenSent = data
	m.lastTokenSentKey = tokenKey{seq: tok.Seq, rotation: tok.Rotation}
	m.tokenRetransOn = true
	m.acts.SetTimer(proto.TimerID{Class: proto.TimerTokenRetransmit}, m.cfg.TokenRetransmitInterval)
	m.acts.SetTimer(proto.TimerID{Class: proto.TimerTokenLoss}, m.cfg.TokenLossTimeout)
}

// sendFirstToken emits the initial token of a freshly-committed ring; only
// the representative calls it.
func (m *Machine) sendFirstToken(now proto.Time) {
	tok := &wire.Token{Ring: m.ring}
	m.forwardToken(tok)
	// Deliberately do not mark the token as "seen": on an idle ring the
	// token comes back with an unchanged (seq, rotation) pair — the
	// rotation counter is only bumped when the representative *processes*
	// a visit — and it must be accepted then.
}

// addClamped computes base + add - sub with saturation at zero, tolerating
// a token whose counters were reset underneath us (regenerated token).
func addClamped(base, add, sub uint32) uint32 {
	v := int64(base) + int64(add) - int64(sub)
	if v < 0 {
		return 0
	}
	return uint32(v)
}
