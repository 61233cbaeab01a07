package core

import (
	"fmt"

	"github.com/totem-rrp/totem/internal/proto"
	"github.com/totem-rrp/totem/internal/wire"
)

// activePassive implements active-passive replication (paper §7): every
// message and token is sent on K of the N networks, with the K-wide window
// advancing round-robin by one network per send. The receiver is a
// two-stage pipeline: the first stage runs the passive-style count
// monitors on everything it sees; the second stage passes a token up once
// K copies have been received or the token timer expires. Duplicate
// messages are suppressed higher up in the SRP (paper §7).
type activePassive struct {
	base

	msgStart int
	tokStart int

	haveToken bool
	lastKey   tokenKey
	lastTok   []byte
	copies    int
	delivered bool

	msgMon map[proto.NodeID]*countMonitor
	tokMon *countMonitor
}

func newActivePassive(cfg Config, acts *proto.Actions, cb Callbacks) *activePassive {
	return &activePassive{
		base:     newBase(cfg, acts, cb),
		msgStart: cfg.Networks - 1,
		tokStart: cfg.Networks - 1,
		msgMon:   make(map[proto.NodeID]*countMonitor),
		tokMon:   newCountMonitor(cfg.Networks),
	}
}

// Style implements Replicator.
func (ap *activePassive) Style() proto.ReplicationStyle { return proto.ReplicationActivePassive }

// Readmit implements Replicator.
func (ap *activePassive) Readmit(network int) {
	if network < 0 || network >= ap.cfg.Networks || !ap.fault[network] {
		return
	}
	ap.readmitCommon(network)
	ap.tokMon.readmit(network)
	for _, mon := range ap.msgMon {
		mon.readmit(network)
	}
}

// Start implements Replicator.
func (ap *activePassive) Start(now proto.Time) {
	ap.acts.SetTimer(proto.TimerID{Class: proto.TimerRRPDecay}, ap.cfg.DecayInterval)
}

// sendK transmits on the K non-faulty networks starting after *start,
// advancing the window start by one (paper §7).
func (ap *activePassive) sendK(start *int, dest proto.NodeID, data []byte) {
	*start = (*start + 1) % ap.cfg.Networks
	sent := 0
	for off := 0; off < ap.cfg.Networks && sent < ap.effectiveK(); off++ {
		i := (*start + off) % ap.cfg.Networks
		if ap.fault[i] {
			continue
		}
		ap.send(i, dest, data)
		sent++
	}
}

// effectiveK caps K at the number of usable networks.
func (ap *activePassive) effectiveK() int {
	if nf := ap.nonFaultyCount(); nf < ap.cfg.K {
		return nf
	}
	return ap.cfg.K
}

// SendMessage implements Replicator.
func (ap *activePassive) SendMessage(data []byte) {
	ap.sendK(&ap.msgStart, proto.BroadcastID, data)
	ap.probeSend(proto.BroadcastID, data)
}

// SendToken implements Replicator.
func (ap *activePassive) SendToken(dest proto.NodeID, data []byte) {
	ap.sendK(&ap.tokStart, dest, data)
	ap.probeSend(dest, data)
}

// OnPacket implements Replicator.
func (ap *activePassive) OnPacket(now proto.Time, network int, data []byte) {
	ap.met.rx[network].Inc()
	kind, err := wire.PeekKind(data)
	if err != nil {
		return
	}
	switch kind {
	case wire.KindData:
		// Stage 1: monitor original transmissions only (retransmissions
		// are not round-robin assigned); stage 2 forwards messages
		// unconditionally — duplicates die in the SRP sequence filter.
		if flags, err := wire.PeekDataFlags(data); err == nil && flags&wire.FlagRetrans == 0 {
			if sender, err := wire.PeekSender(data); err == nil {
				ap.observeMessage(now, sender, network)
			}
		}
		ap.cb.Deliver(now, data)
	case wire.KindToken:
		ap.observeToken(now, network)
		seq, rot, err := wire.PeekTokenSeq(data)
		if err != nil {
			return
		}
		ring, err := wire.PeekRing(data)
		if err != nil {
			return
		}
		key := tokenKey{ring: ring, seq: seq, rotation: rot}
		switch {
		case !ap.haveToken || key.newer(ap.lastKey):
			ap.haveToken = true
			ap.lastKey = key
			ap.lastTok = data
			ap.copies = 1
			ap.delivered = false
			ap.acts.Probe(proto.ProbeTokenGathered, network, int64(seq), int64(rot), 0)
			ap.acts.SetTimer(proto.TimerID{Class: proto.TimerRRPToken}, ap.cfg.TokenTimeout)
		case key == ap.lastKey:
			if ap.delivered {
				ap.met.tokensDiscarded.Inc()
				ap.acts.Probe(proto.ProbeTokenDiscarded, network, int64(seq), 0, 0)
				return
			}
			ap.copies++
		default:
			ap.met.tokensDiscarded.Inc()
			ap.acts.Probe(proto.ProbeTokenDiscarded, network, int64(seq), 0, 0)
			return
		}
		if !ap.delivered && ap.copies >= ap.effectiveK() {
			ap.delivered = true
			ap.acts.CancelTimer(proto.TimerID{Class: proto.TimerRRPToken})
			ap.met.tokensGated.Inc()
			ap.acts.Probe(proto.ProbeTokenGated, -1, int64(ap.lastKey.seq), 0, 0)
			ap.cb.Deliver(now, ap.lastTok)
		}
	default:
		ap.cb.Deliver(now, data)
	}
}

// OnTimer implements Replicator.
func (ap *activePassive) OnTimer(now proto.Time, id proto.TimerID) {
	switch id.Class {
	case proto.TimerRRPToken:
		if ap.delivered || !ap.haveToken {
			return
		}
		ap.delivered = true
		ap.met.tokensTimedOut.Inc()
		ap.acts.Probe(proto.ProbeTokenTimedOut, -1, int64(ap.lastKey.seq), 0, 0)
		ap.cb.Deliver(now, ap.lastTok)
	case proto.TimerRRPDecay:
		ap.tokMon.replenish(ap.fault)
		for _, mon := range ap.msgMon {
			mon.replenish(ap.fault)
		}
		ap.acts.Probe(proto.ProbeMonitorDecay, -1, int64(ap.rec.windows), monitorHeadroom(ap.tokMon, ap.msgMon), 0)
		ap.recoveryTick(now, ap.Readmit)
		ap.acts.SetTimer(proto.TimerID{Class: proto.TimerRRPDecay}, ap.cfg.DecayInterval)
	}
}

func (ap *activePassive) observeToken(now proto.Time, network int) {
	if lag := ap.tokMon.observe(network, ap.fault); lag >= 0 && ap.tokMon.diff(lag) > ap.cfg.TokenDiffThreshold {
		if ap.holdGrace(lag) {
			// The lag accrued while slower peers were still excluding the
			// repaired network; discard it instead of convicting.
			ap.tokMon.readmit(lag)
			return
		}
		ap.acts.Probe(proto.ProbeMonitorThreshold, lag, int64(ap.tokMon.diff(lag)), int64(ap.cfg.TokenDiffThreshold), 0)
		ap.markFaulty(now, lag, fmt.Sprintf(
			"active-passive token monitor: network lags by %d receptions", ap.tokMon.diff(lag)))
	}
}

func (ap *activePassive) observeMessage(now proto.Time, sender proto.NodeID, network int) {
	mon := ap.msgMon[sender]
	if mon == nil {
		mon = newCountMonitor(ap.cfg.Networks)
		ap.msgMon[sender] = mon
	}
	if lag := mon.observe(network, ap.fault); lag >= 0 && mon.diff(lag) > ap.cfg.DiffThreshold {
		if ap.holdGrace(lag) {
			mon.readmit(lag)
			return
		}
		ap.acts.Probe(proto.ProbeMonitorThreshold, lag, int64(mon.diff(lag)), int64(ap.cfg.DiffThreshold), 0)
		ap.markFaulty(now, lag, fmt.Sprintf(
			"active-passive message monitor (sender %v): network lags by %d receptions", sender, mon.diff(lag)))
	}
}

var _ Replicator = (*activePassive)(nil)
