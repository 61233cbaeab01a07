package core

import (
	"strings"
	"testing"

	"github.com/totem-rrp/totem/internal/proto"
)

func newPassiveForTest(t *testing.T, rec *recorder, networks int) *passive {
	t.Helper()
	cfg := DefaultConfig(networks, proto.ReplicationPassive)
	rep, err := New(cfg, &rec.acts, rec.callbacks())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	p, ok := rep.(*passive)
	if !ok {
		t.Fatalf("want *passive, got %T", rep)
	}
	return p
}

func TestPassiveRoundRobinSend(t *testing.T) {
	rec := &recorder{}
	p := newPassiveForTest(t, rec, 3)
	for i := 0; i < 6; i++ {
		p.SendMessage(dataBytes(t, 1, uint32(i+1)))
	}
	if got := rec.drainSends(t, 3); got[0] != 2 || got[1] != 2 || got[2] != 2 {
		t.Fatalf("sends = %v, want perfectly balanced round-robin", got)
	}
}

func TestPassiveSendsSingleCopy(t *testing.T) {
	// Paper §4: bandwidth consumption equals the unreplicated system.
	rec := &recorder{}
	p := newPassiveForTest(t, rec, 2)
	p.SendMessage(dataBytes(t, 1, 1))
	counts := rec.drainSends(t, 2)
	if counts[0]+counts[1] != 1 {
		t.Fatalf("sends = %v, want exactly one copy", counts)
	}
}

func TestPassiveTokenRoundRobinIndependentOfMessages(t *testing.T) {
	rec := &recorder{}
	p := newPassiveForTest(t, rec, 2)
	p.SendMessage(dataBytes(t, 1, 1)) // message uses network 0
	rec.acts.Drain()
	p.SendToken(2, tokenBytes(t, 1, 0)) // token pointer starts fresh
	for _, a := range rec.acts.Drain() {
		if sp, ok := a.(*proto.SendPacket); ok {
			if sp.Network != 0 {
				t.Fatalf("token went via network %d, want independent rotation starting at 0", sp.Network)
			}
			if sp.Dest != 2 {
				t.Fatalf("token dest %v", sp.Dest)
			}
		}
	}
}

func TestPassiveSkipsFaultyNetwork(t *testing.T) {
	rec := &recorder{}
	p := newPassiveForTest(t, rec, 3)
	p.fault[1] = true
	for i := 0; i < 4; i++ {
		p.SendMessage(dataBytes(t, 1, uint32(i+1)))
	}
	if got := rec.drainSends(t, 3); got[1] != 0 || got[0] != 2 || got[2] != 2 {
		t.Fatalf("sends = %v, want network 1 skipped", got)
	}
}

func TestPassiveTokenPassesWhenNothingMissing(t *testing.T) {
	rec := &recorder{missing: false}
	p := newPassiveForTest(t, rec, 2)
	p.OnPacket(0, 0, tokenBytes(t, 10, 0))
	if len(rec.delivered) != 1 {
		t.Fatalf("token not passed straight up: %d", len(rec.delivered))
	}
	if p.met.tokensGated.Count() != 1 {
		t.Fatalf("TokensGated = %d", p.met.tokensGated.Count())
	}
}

func TestPassiveBuffersTokenWhileMissing(t *testing.T) {
	// Requirement P1 / Figure 3 scenario 1: a token overtaking a delayed
	// message must not trigger a retransmission — it is buffered.
	rec := &recorder{missing: true}
	p := newPassiveForTest(t, rec, 2)
	p.OnPacket(0, 0, tokenBytes(t, 10, 0))
	if len(rec.delivered) != 0 {
		t.Fatal("token passed up despite missing messages")
	}
	if !p.holding {
		t.Fatal("token not held")
	}
	// The delayed message arrives on the other network; the gap closes.
	rec.missing = false
	p.OnPacket(0, 1, dataBytes(t, 3, 10))
	if len(rec.delivered) != 2 {
		t.Fatalf("deliveries = %d, want message then token", len(rec.delivered))
	}
	// Order: message first, then the released token (paper Fig. 4).
	if k, _ := peekKindForTest(rec.delivered[0]); k != 1 {
		t.Fatal("message was not delivered before the released token")
	}
}

func TestPassiveTokenTimerReleasesHeldToken(t *testing.T) {
	// Requirement P3: progress even if the missing message never arrives.
	rec := &recorder{missing: true}
	p := newPassiveForTest(t, rec, 2)
	p.OnPacket(0, 0, tokenBytes(t, 10, 0))
	p.OnTimer(p.cfg.TokenHold, proto.TimerID{Class: proto.TimerRRPToken})
	if len(rec.delivered) != 1 {
		t.Fatalf("timer did not release token: %d", len(rec.delivered))
	}
	if p.met.tokensTimedOut.Count() != 1 {
		t.Fatalf("TokensTimedOut = %d", p.met.tokensTimedOut.Count())
	}
}

func TestPassiveMessageWithStillMissingKeepsHolding(t *testing.T) {
	// Figure 3 scenario 2: message m3 arrives while m2 is still missing —
	// the held token stays held.
	rec := &recorder{missing: true}
	p := newPassiveForTest(t, rec, 2)
	p.OnPacket(0, 0, tokenBytes(t, 10, 0))
	p.OnPacket(0, 1, dataBytes(t, 3, 9)) // a message, but gaps remain
	if len(rec.delivered) != 1 {         // only the message went up
		t.Fatalf("deliveries = %d, want 1", len(rec.delivered))
	}
	if !p.holding {
		t.Fatal("token released despite missing messages")
	}
}

func TestPassiveMonitorFlagsLaggingNetwork(t *testing.T) {
	// Requirement P4: the network that stops delivering is detected.
	rec := &recorder{missing: false}
	p := newPassiveForTest(t, rec, 2)
	var seq uint32
	for i := 0; i <= p.cfg.DiffThreshold; i++ {
		seq++
		p.OnPacket(0, 0, dataBytes(t, 3, seq)) // network 1 delivers nothing
	}
	faults := rec.drainFaults()
	if len(faults) != 1 || faults[0].Network != 1 {
		t.Fatalf("faults = %v, want network 1", faults)
	}
	if !strings.Contains(faults[0].Reason, "message monitor") {
		t.Fatalf("reason = %q", faults[0].Reason)
	}
}

func TestPassiveTokenMonitorFlagsLaggingNetwork(t *testing.T) {
	rec := &recorder{missing: false}
	p := newPassiveForTest(t, rec, 2)
	var seq uint32
	for i := 0; i <= p.cfg.DiffThreshold; i++ {
		seq += 5
		p.OnPacket(0, 0, tokenBytes(t, seq, 0))
	}
	faults := rec.drainFaults()
	if len(faults) != 1 || faults[0].Network != 1 {
		t.Fatalf("faults = %v, want network 1 via token monitor", faults)
	}
}

func TestPassiveMonitorPerSenderIsolation(t *testing.T) {
	// One sender's traffic imbalance must not be masked by another's.
	rec := &recorder{missing: false}
	p := newPassiveForTest(t, rec, 2)
	var seq uint32
	for i := 0; i < p.cfg.DiffThreshold/2; i++ {
		seq++
		p.OnPacket(0, 0, dataBytes(t, 3, seq))
		seq++
		p.OnPacket(0, 1, dataBytes(t, 4, seq))
	}
	if faults := rec.drainFaults(); len(faults) != 0 {
		t.Fatalf("balanced per-sender traffic raised faults: %v", faults)
	}
}

func TestPassiveReplenishForgivesSporadicLoss(t *testing.T) {
	// Requirement P5: occasional loss on one network, spread over time,
	// never accumulates into a fault when decay runs in between.
	rec := &recorder{missing: false}
	p := newPassiveForTest(t, rec, 2)
	var seq uint32
	for round := 0; round < 4*p.cfg.DiffThreshold; round++ {
		// Alternating traffic with one extra reception on network 0 per
		// round (a sporadic loss on network 1)...
		seq++
		p.OnPacket(0, 0, dataBytes(t, 3, seq))
		seq++
		p.OnPacket(0, 1, dataBytes(t, 3, seq))
		seq++
		p.OnPacket(0, 0, dataBytes(t, 3, seq))
		// ...followed by a replenish tick.
		p.OnTimer(0, proto.TimerID{Class: proto.TimerRRPDecay})
	}
	if faults := rec.drainFaults(); len(faults) != 0 {
		t.Fatalf("sporadic loss raised faults: %v", faults)
	}
}

func TestPassiveNewerTokenReplacesHeldToken(t *testing.T) {
	rec := &recorder{missing: true}
	p := newPassiveForTest(t, rec, 2)
	p.OnPacket(0, 0, tokenBytes(t, 10, 0))
	p.OnPacket(0, 1, tokenBytes(t, 20, 0))
	rec.missing = false
	p.OnTimer(0, proto.TimerID{Class: proto.TimerRRPToken})
	if len(rec.delivered) != 1 {
		t.Fatalf("deliveries = %d", len(rec.delivered))
	}
	seq, _, err := peekTokenSeqForTest(rec.delivered[0])
	if err != nil || seq != 20 {
		t.Fatalf("released token seq = %d, want the newest (20)", seq)
	}
}

func TestPassiveFaultStopsCountingTowardLag(t *testing.T) {
	// After a network is declared faulty its frozen counter must not keep
	// raising faults.
	rec := &recorder{missing: false}
	p := newPassiveForTest(t, rec, 3)
	var seq uint32
	for i := 0; i <= 3*p.cfg.DiffThreshold; i++ {
		seq++
		p.OnPacket(0, i%2, dataBytes(t, 3, seq)) // networks 0,1 only
	}
	faults := rec.drainFaults()
	if len(faults) != 1 || faults[0].Network != 2 {
		t.Fatalf("faults = %v, want exactly one fault on network 2", faults)
	}
}

func TestPassiveDisplacedHeldTokenAccounted(t *testing.T) {
	// Regression: a second token arriving while one was buffered silently
	// replaced p.held — the displaced frame was never recycled and neither
	// a probe nor a counter recorded that the old token was abandoned, so
	// heldSeq probes were attributed to a token that was already gone.
	rec := &recorder{missing: true}
	p := newPassiveForTest(t, rec, 2)
	var probes []proto.ProbeEvent
	rec.acts.SetProbe(func(e proto.ProbeEvent) { probes = append(probes, e) })
	p.OnPacket(0, 0, tokenBytes(t, 10, 0))
	p.OnPacket(0, 1, tokenBytes(t, 20, 0))
	if got := p.met.tokensDiscarded.Count(); got != 1 {
		t.Fatalf("TokensDiscarded = %d, want the displaced token counted", got)
	}
	var disc []proto.ProbeEvent
	for _, e := range probes {
		if e.Code == proto.ProbeTokenDiscarded {
			disc = append(disc, e)
		}
	}
	if len(disc) != 1 || disc[0].A != 10 || disc[0].Network != 1 {
		t.Fatalf("discard probes = %+v, want exactly one for the displaced seq 10 arriving on network 1", disc)
	}
	if p.heldSeq != 20 {
		t.Fatalf("heldSeq = %d, want the surviving token (20)", p.heldSeq)
	}
	// The timer releases exactly the surviving token, once.
	p.OnTimer(0, proto.TimerID{Class: proto.TimerRRPToken})
	if len(rec.delivered) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(rec.delivered))
	}
	if seq, _, _ := peekTokenSeqForTest(rec.delivered[0]); seq != 20 {
		t.Fatalf("released token seq = %d, want 20", seq)
	}
}

func TestPassiveChaosHeldTokenLeakRevertsFix(t *testing.T) {
	// The chaos flag must faithfully reintroduce the displaced-held-token
	// bug so the torture harness can prove its accounting invariant
	// catches it.
	Chaos.HeldTokenLeak = true
	t.Cleanup(func() { Chaos = ChaosFlags{} })
	rec := &recorder{missing: true}
	p := newPassiveForTest(t, rec, 2)
	p.OnPacket(0, 0, tokenBytes(t, 10, 0))
	p.OnPacket(0, 1, tokenBytes(t, 20, 0))
	if got := p.met.tokensDiscarded.Count(); got != 0 {
		t.Fatalf("TokensDiscarded = %d, chaos flag should restore the silent drop", got)
	}
}

func TestPassiveMonitorIgnoresConvictedNetworkTraffic(t *testing.T) {
	// Regression: faults are per-node, so peers that have not convicted a
	// network keep transmitting on it and those receptions still arrive
	// here. They used to feed the count monitor, whose counter for the
	// convicted network is excluded from the normalisation minimum — so it
	// grew without bound while the sole usable network held the minimum at
	// zero, breaching the headroom contract long after the original fault
	// healed. Receptions on a locally-convicted network must leave the
	// monitors untouched until readmission.
	rec := &recorder{missing: false}
	cfg := DefaultConfig(2, proto.ReplicationPassive)
	cfg.AutoReadmit = false
	rep, err := New(cfg, &rec.acts, rec.callbacks())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	p := rep.(*passive)
	var seq uint32
	// Drive network 1 into a fault the normal way.
	for i := 0; i <= p.cfg.DiffThreshold; i++ {
		seq++
		p.OnPacket(0, 0, dataBytes(t, 3, seq))
	}
	if faults := rec.drainFaults(); len(faults) != 1 || faults[0].Network != 1 {
		t.Fatalf("setup faults = %v, want network 1 convicted", faults)
	}
	// A peer that still trusts network 1 floods it; network 0 idles, so
	// normalisation cannot drain anything it would let in.
	bound := int64(2*p.cfg.DiffThreshold + 2)
	for i := 0; i < 10*p.cfg.DiffThreshold; i++ {
		seq++
		p.OnPacket(0, 1, dataBytes(t, 3, seq))
		p.OnPacket(0, 1, tokenBytes(t, seq, 0))
	}
	if h := monitorHeadroom(p.tokMon, p.msgMon); h > bound {
		t.Fatalf("monitor headroom %d exceeds bound %d: convicted-network receptions were counted", h, bound)
	}
}

func TestPassiveMonitorBoundedDuringMultiHourFault(t *testing.T) {
	// Regression: countMonitor.observe normalised with the minimum over
	// *all* networks, so a faulty network's frozen counter pinned the
	// minimum at zero and the healthy counters grew without bound for as
	// long as the fault lasted — contradicting the monitor's "never grow
	// unboundedly" contract. Three virtual hours of one-network traffic
	// must keep every counter under a fixed bound.
	rec := &recorder{missing: false}
	cfg := DefaultConfig(2, proto.ReplicationPassive)
	cfg.AutoReadmit = false // keep network 1 faulty for the whole run
	rep, err := New(cfg, &rec.acts, rec.callbacks())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	p := rep.(*passive)
	var seq uint32
	// Drive network 1 into a fault the normal way.
	for i := 0; i <= p.cfg.DiffThreshold; i++ {
		seq++
		p.OnPacket(0, 0, dataBytes(t, 3, seq))
	}
	if faults := rec.drainFaults(); len(faults) != 1 || faults[0].Network != 1 {
		t.Fatalf("setup faults = %v, want network 1 convicted", faults)
	}
	// ~3 virtual hours: 50 messages and 5 token visits per decay window.
	bound := int64(2*p.cfg.DiffThreshold + 2)
	now := proto.Time(0)
	for tick := 0; tick < 3*3600; tick++ {
		for i := 0; i < 50; i++ {
			seq++
			p.OnPacket(now, 0, dataBytes(t, 3, seq))
		}
		for i := 0; i < 5; i++ {
			seq++
			p.OnPacket(now, 0, tokenBytes(t, seq, 0))
		}
		now += p.cfg.DecayInterval
		p.OnTimer(now, proto.TimerID{Class: proto.TimerRRPDecay})
		if h := monitorHeadroom(p.tokMon, p.msgMon); h > bound {
			t.Fatalf("monitor headroom %d exceeds bound %d after %v of fault", h, bound, now)
		}
		rec.acts.Drain()
	}
}

func TestPassiveChaosMonitorPinnedMinGrowsUnbounded(t *testing.T) {
	// The chaos flag must faithfully reintroduce the pinned-minimum bug so
	// the torture harness can prove its boundedness invariant catches it.
	Chaos.MonitorPinnedMin = true
	t.Cleanup(func() { Chaos = ChaosFlags{} })
	rec := &recorder{missing: false}
	p := newPassiveForTest(t, rec, 2)
	p.fault[1] = true
	var seq uint32
	bound := int64(2*p.cfg.DiffThreshold + 2)
	for i := 0; i < 4*p.cfg.DiffThreshold; i++ {
		seq++
		p.OnPacket(0, 0, dataBytes(t, 3, seq))
	}
	if h := monitorHeadroom(p.tokMon, p.msgMon); h <= bound {
		t.Fatalf("monitor headroom %d stayed under %d, chaos flag should restore unbounded growth", h, bound)
	}
}

func TestCountMonitorFrozenCounterSemantics(t *testing.T) {
	m := newCountMonitor(3)
	fault := []bool{false, false, true}
	m.recv[2] = 5 // frozen ahead of the healthy networks
	// While the frozen counter sits above the non-faulty minimum the fixed
	// normalisation is identical to the original one: the counter rides
	// down with every subtraction, preserving its differences.
	m.observe(0, fault)
	m.observe(1, fault) // non-faulty minimum hits 1 → subtract 1 everywhere
	if m.recv[0] != 0 || m.recv[1] != 0 || m.recv[2] != 4 {
		t.Fatalf("recv = %v, want frozen counter ridden down to 4", m.recv)
	}
	// At the floor it stops instead of going negative or (the bug) pinning
	// the minimum; healthy counters keep normalising to zero.
	for i := 0; i < 20; i++ {
		m.observe(0, fault)
		m.observe(1, fault)
	}
	if m.recv[0] != 0 || m.recv[1] != 0 || m.recv[2] != 0 {
		t.Fatalf("recv = %v, want every counter at the floor", m.recv)
	}
}

// peekKindForTest re-exports wire.PeekKind without an import cycle risk in
// these white-box tests.
func peekKindForTest(data []byte) (byte, error) {
	if len(data) < 4 {
		return 0, nil
	}
	return data[3], nil
}

func peekTokenSeqForTest(data []byte) (uint32, uint32, error) {
	if len(data) < 20 {
		return 0, 0, nil
	}
	return uint32(data[12])<<24 | uint32(data[13])<<16 | uint32(data[14])<<8 | uint32(data[15]),
		0, nil
}
