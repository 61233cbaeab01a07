package srp

import (
	"github.com/totem-rrp/totem/internal/proto"
	"github.com/totem-rrp/totem/internal/wire"
)

// beginRecovery installs the pending ring's sequencing state and builds
// the queue of old-ring packets this node is responsible for
// re-broadcasting, encapsulated on the new ring.
//
// Responsibility rule: for each old-ring sequence number above the group's
// minimum all-received-up-to, the lowest-ID member whose ARU covers it
// re-broadcasts; sequence numbers beyond every member's ARU (held only
// partially) are re-broadcast by every holder, with duplicates suppressed
// by the receivers' sequence filters.
func (m *Machine) beginRecovery(now proto.Time, c *wire.CommitToken) {
	m.ring = c.Ring
	ids := make([]proto.NodeID, len(c.Members))
	for i := range c.Members {
		ids[i] = c.Members[i].ID
	}
	m.members = newNodeSet(ids...)
	m.resetRingState()
	m.recQueue = nil
	m.setState(StateRecovery)

	if m.old != nil {
		var group []wire.CommitEntry
		for _, e := range c.Members {
			if e.OldRing == m.old.ring {
				group = append(group, e)
			}
		}
		if len(group) > 0 {
			lowAru := group[0].MyAru
			highAll := group[0].HighSeq
			for _, e := range group[1:] {
				if e.MyAru < lowAru {
					lowAru = e.MyAru
				}
				if e.HighSeq > highAll {
					highAll = e.HighSeq
				}
			}
			for s := lowAru + 1; s <= highAll && s != 0; s++ {
				pkt := m.old.rx.get(s)
				if pkt == nil {
					continue
				}
				var responsible proto.NodeID
				for _, e := range group {
					if e.MyAru >= s {
						responsible = e.ID
						break // group is in ring (sorted-ID) order
					}
				}
				if responsible != 0 && responsible != m.cfg.ID {
					continue
				}
				copyPkt := *pkt
				copyPkt.Flags &^= wire.FlagRetrans
				data, err := copyPkt.Encode()
				if err != nil {
					continue
				}
				m.recQueue = append(m.recQueue, data)
			}
		}
	}

	// The new ring must produce a token promptly; if it does not, regather.
	m.acts.SetTimer(proto.TimerID{Class: proto.TimerTokenLoss}, m.cfg.TokenLossTimeout)
}

// unwrapRecovery extracts the original old-ring packet from a recovery
// packet and files it into the old-ring receive buffer. Packets from other
// partitions' old rings are dropped: extended virtual synchrony delivers a
// message only to processors that were members of the configuration the
// message was sent in.
func (m *Machine) unwrapRecovery(pkt *wire.DataPacket) {
	if m.old == nil || len(pkt.Chunks) != 1 {
		return
	}
	inner, err := wire.DecodeData(pkt.Chunks[0].Data)
	if err != nil {
		return
	}
	if inner.Ring != m.old.ring || inner.Seq == 0 {
		return
	}
	if inner.Seq <= m.old.deliveredTo || m.old.rx.get(inner.Seq) != nil {
		return
	}
	m.old.rx.put(inner.Seq, inner)
}

// completeRecovery finishes the membership change: it cancels the commit
// machinery, delivers the transitional configuration, the recovered
// old-ring messages, and the regular configuration, then returns the
// machine to Operational.
func (m *Machine) completeRecovery(now proto.Time) {
	m.acts.CancelTimer(proto.TimerID{Class: proto.TimerCommitRetransmit})
	m.commitPhase = 0
	m.pendingCommit = nil
	m.lastCommitSent = nil
	m.commitWaiting = false
	m.deliverOldAndInstall(now)
}

// deliverOldAndInstall emits the extended-virtual-synchrony delivery
// sequence for a configuration change: transitional configuration →
// remaining old-ring messages (marked transitional) → regular
// configuration. It leaves the machine Operational.
func (m *Machine) deliverOldAndInstall(now proto.Time) {
	if m.old != nil {
		trans := m.old.members.intersect(m.members)
		m.acts.Config(proto.ConfigChange{
			Ring:         m.ring,
			Members:      trans,
			Transitional: true,
		})
		m.ctr.configChanges.Inc()
		for s := m.old.deliveredTo + 1; ; s++ {
			pkt := m.old.rx.get(s)
			if pkt == nil {
				break
			}
			m.old.deliveredTo = s
			m.deliverOldPacket(now, s, pkt)
		}
		// The agreed prefix ends at the first gap, but extended virtual
		// synchrony still owes the messages of transitional members beyond
		// it — above all a processor's own messages, which it holds by
		// construction (self-delivery). A gap only forfeits messages from
		// processors outside the transitional configuration; packets from
		// members are delivered in sequence order past it. Without this a
		// node forced through a singleton transition (e.g. after a failed
		// commit round) silently drops its own accepted messages while the
		// rest of the old ring goes on to deliver them.
		for s := m.old.deliveredTo + 1; s <= m.old.high && s != 0; s++ {
			pkt := m.old.rx.get(s)
			if pkt == nil || !trans.contains(pkt.Sender) {
				continue
			}
			m.deliverOldPacket(now, s, pkt)
		}
		m.old = nil
	}
	m.acts.Config(proto.ConfigChange{
		Ring:         m.ring,
		Members:      m.members.clone(),
		Transitional: false,
	})
	m.ctr.configChanges.Inc()
	// Bulk-lane configuration hooks: partials from departed senders can
	// never complete (the ring does not retransmit across configurations),
	// and local senders must rewind their transfers to the last contiguous
	// acknowledged offset and re-send.
	if dropped := m.bulkRx.Retain(m.members.contains); dropped > 0 {
		m.ctr.bulkRxDropped.Add(uint64(dropped))
	}
	m.acts.Bulk(proto.BulkEvent{Kind: proto.BulkReconfig, Time: now})
	m.setState(StateOperational)
	if m.isRep() {
		// The representative advertises the ring so that partitioned
		// rings discover each other once connectivity heals.
		m.acts.SetTimer(proto.TimerID{Class: proto.TimerMergeDetect}, m.cfg.MergeDetectInterval)
	}
}

// deliverOldPacket delivers one old-ring packet in the transitional
// configuration.
func (m *Machine) deliverOldPacket(now proto.Time, s uint32, pkt *wire.DataPacket) {
	if pkt.Flags&wire.FlagRecovery != 0 {
		// A nested recovery placeholder: its payload belongs to an older
		// configuration that was already delivered when this old ring was
		// installed.
		return
	}
	for _, c := range pkt.Chunks {
		msg, ok := m.old.asm.Add(pkt.Sender, c)
		if !ok {
			continue
		}
		if c.Flags&wire.ChunkBulk != 0 {
			// Transitional bulk chunks still feed the receiver (and still
			// acknowledge the sender's own chunks): among transitional
			// members delivery is uniform, so prefix state stays agreed.
			m.onBulkMessage(now, m.old.ring, pkt.Sender, s, msg, true)
			continue
		}
		m.ctr.msgsDelivered.Inc()
		m.ctr.bytesDelivered.Add(uint64(len(msg)))
		m.acts.Deliver(proto.Delivery{
			Ring:         m.old.ring,
			Sender:       pkt.Sender,
			Seq:          s,
			Payload:      msg,
			Transitional: true,
		})
	}
	m.countReassemblyDrops(m.old.asm)
}

// sendMergeDetect broadcasts the ring advertisement.
func (m *Machine) sendMergeDetect() {
	md := &wire.MergeDetect{Ring: m.ring, Sender: m.cfg.ID}
	data, err := md.Encode()
	if err != nil {
		return
	}
	m.out.Broadcast(data)
}

// onMergeDetect reacts to another ring's advertisement: an operational
// node hearing a foreign ring starts the membership protocol so the rings
// merge.
func (m *Machine) onMergeDetect(now proto.Time, md *wire.MergeDetect) {
	if md.Sender == m.cfg.ID || md.Ring == m.ring {
		return
	}
	if md.Ring.Epoch > m.maxEpoch {
		m.maxEpoch = md.Ring.Epoch
	}
	if m.state == StateOperational {
		m.enterGather(now, newNodeSet(md.Sender), nil)
	}
}
