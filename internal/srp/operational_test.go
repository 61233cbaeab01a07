package srp

import (
	"testing"

	"github.com/totem-rrp/totem/internal/metrics"
	"github.com/totem-rrp/totem/internal/proto"
	"github.com/totem-rrp/totem/internal/wire"
)

// fakeOut records sends for white-box machine tests.
type fakeOut struct {
	broadcasts [][]byte
	unicasts   []struct {
		dest proto.NodeID
		data []byte
	}
}

func (f *fakeOut) Broadcast(data []byte) { f.broadcasts = append(f.broadcasts, data) }
func (f *fakeOut) Unicast(dest proto.NodeID, data []byte) {
	f.unicasts = append(f.unicasts, struct {
		dest proto.NodeID
		data []byte
	}{dest, data})
}

// operationalMachine builds a machine already installed on a 3-node ring
// {1,2,3} as node id, bypassing membership.
func operationalMachine(t *testing.T, id proto.NodeID) (*Machine, *fakeOut, *proto.Actions) {
	t.Helper()
	out := &fakeOut{}
	acts := &proto.Actions{}
	m, err := NewMachine(DefaultConfig(id), out, acts)
	if err != nil {
		t.Fatal(err)
	}
	m.state = StateOperational
	m.ring = proto.RingID{Rep: 1, Epoch: 5}
	m.members = newNodeSet(1, 2, 3)
	m.maxEpoch = 5
	return m, out, acts
}

// mkData builds a stored packet for the machine's ring.
func mkData(m *Machine, sender proto.NodeID, seq uint32, payload string) *wire.DataPacket {
	return &wire.DataPacket{
		Ring: m.ring, Sender: sender, Seq: seq,
		Chunks: []wire.Chunk{{Flags: wire.ChunkFirst | wire.ChunkLast, Data: []byte(payload)}},
	}
}

func TestServeRetransmissionsServesAndPrunesRTR(t *testing.T) {
	m, out, _ := operationalMachine(t, 2)
	m.rx.put(5, mkData(m, 1, 5, "five"))
	tok := &wire.Token{Ring: m.ring, Seq: 10, RTR: []uint32{5, 7}}
	sent := m.serveRetransmissions(tok)
	if sent != 1 {
		t.Fatalf("sent = %d", sent)
	}
	if len(tok.RTR) != 1 || tok.RTR[0] != 7 {
		t.Fatalf("RTR = %v, want [7]", tok.RTR)
	}
	if len(out.broadcasts) != 1 {
		t.Fatalf("broadcasts = %d", len(out.broadcasts))
	}
	pkt, err := wire.DecodeData(out.broadcasts[0])
	if err != nil {
		t.Fatal(err)
	}
	if pkt.Flags&wire.FlagRetrans == 0 {
		t.Fatal("retransmission not flagged")
	}
	if pkt.Sender != 1 || pkt.Seq != 5 {
		t.Fatalf("retransmitted wrong packet: %+v", pkt)
	}
}

func TestRequestRetransmissionsAddsGapsOnly(t *testing.T) {
	m, _, _ := operationalMachine(t, 2)
	m.rx.put(1, mkData(m, 1, 1, "one"))
	m.rx.put(3, mkData(m, 1, 3, "three"))
	m.myAru = 1
	tok := &wire.Token{Ring: m.ring, Seq: 5, RTR: []uint32{4}}
	m.requestRetransmissions(tok)
	// Missing: 2, 4 (already listed), 5 → adds 2 and 5.
	want := map[uint32]bool{2: true, 4: true, 5: true}
	if len(tok.RTR) != 3 {
		t.Fatalf("RTR = %v", tok.RTR)
	}
	for _, s := range tok.RTR {
		if !want[s] {
			t.Fatalf("unexpected RTR entry %d in %v", s, tok.RTR)
		}
	}
}

func TestRequestRetransmissionsRespectsCap(t *testing.T) {
	m, _, _ := operationalMachine(t, 2)
	tok := &wire.Token{Ring: m.ring, Seq: 1000}
	m.requestRetransmissions(tok)
	if len(tok.RTR) != wire.MaxRTR {
		t.Fatalf("RTR length = %d, want cap %d", len(tok.RTR), wire.MaxRTR)
	}
}

func TestSendNewTrafficRespectsWindowAndVisitCap(t *testing.T) {
	m, out, _ := operationalMachine(t, 2)
	for i := 0; i < 100; i++ {
		m.packer.Enqueue(make([]byte, 1000)) // one packet per message
	}
	// FCC already at window-5: only 5 packets allowed this visit.
	tok := &wire.Token{Ring: m.ring, Seq: 50, ARU: 50, FCC: uint32(m.cfg.WindowSize - 5)}
	sent := m.sendNewTraffic(tok)
	if sent != 5 {
		t.Fatalf("sent = %d, want 5 (window residue)", sent)
	}
	if len(out.broadcasts) != 5 {
		t.Fatalf("broadcasts = %d", len(out.broadcasts))
	}
	// Fresh token with zero FCC: capped by MaxPerVisit.
	out.broadcasts = nil
	tok2 := &wire.Token{Ring: m.ring, Seq: tok.Seq, ARU: tok.Seq}
	sent = m.sendNewTraffic(tok2)
	if sent != uint32(m.cfg.MaxPerVisit) {
		t.Fatalf("sent = %d, want MaxPerVisit %d", sent, m.cfg.MaxPerVisit)
	}
}

func TestSendNewTrafficRespectsInFlightBound(t *testing.T) {
	m, _, _ := operationalMachine(t, 2)
	for i := 0; i < 100; i++ {
		m.packer.Enqueue(make([]byte, 1000)) // one packet per message
	}
	// seq far beyond aru: window minus in-flight bounds sends.
	tok := &wire.Token{Ring: m.ring, Seq: 100, ARU: 100 - uint32(m.cfg.WindowSize) + 3}
	if sent := m.sendNewTraffic(tok); sent != 3 {
		t.Fatalf("sent = %d, want 3 (in-flight bound)", sent)
	}
}

func TestOnDataDeliversInOrderAndCountsDuplicates(t *testing.T) {
	m, _, acts := operationalMachine(t, 2)
	m.onData(0, mkData(m, 1, 2, "second"))
	if len(drainDeliveries(acts)) != 0 {
		t.Fatal("out-of-order packet delivered")
	}
	m.onData(0, mkData(m, 1, 1, "first"))
	got := drainDeliveries(acts)
	if len(got) != 2 || string(got[0].Payload) != "first" || string(got[1].Payload) != "second" {
		t.Fatalf("deliveries = %v", got)
	}
	m.onData(0, mkData(m, 1, 1, "first"))
	if m.ctr.duplicates.Count() != 1 {
		t.Fatalf("Duplicates = %d", m.ctr.duplicates.Count())
	}
}

func TestSafeModeHoldsDeliveryUntilSafe(t *testing.T) {
	out := &fakeOut{}
	acts := &proto.Actions{}
	cfg := DefaultConfig(2)
	cfg.Delivery = DeliverSafe
	m, err := NewMachine(cfg, out, acts)
	if err != nil {
		t.Fatal(err)
	}
	m.state = StateOperational
	m.ring = proto.RingID{Rep: 1, Epoch: 5}
	m.members = newNodeSet(1, 2, 3)

	m.onData(0, mkData(m, 1, 1, "held"))
	if len(drainDeliveries(acts)) != 0 {
		t.Fatal("safe mode delivered before the safe horizon")
	}
	// Two token visits with ARU >= 1 establish safety.
	m.onToken(0, &wire.Token{Ring: m.ring, Seq: 1, ARU: 1, Rotation: 1})
	m.onToken(0, &wire.Token{Ring: m.ring, Seq: 1, ARU: 1, Rotation: 2})
	got := drainDeliveries(acts)
	if len(got) != 1 || string(got[0].Payload) != "held" {
		t.Fatalf("safe delivery = %v", got)
	}
}

func TestPruneKeepsUnsafePackets(t *testing.T) {
	m, _, _ := operationalMachine(t, 2)
	m.rx.put(1, mkData(m, 1, 1, "a"))
	m.rx.put(2, mkData(m, 1, 2, "b"))
	m.myAru = 2
	m.deliveredTo = 2
	m.safeTo = 1
	m.prune()
	if m.rx.get(1) != nil {
		t.Fatal("safe+delivered packet not pruned")
	}
	if m.rx.get(2) == nil {
		t.Fatal("unsafe packet pruned — retransmission would be impossible")
	}
}

func TestForwardTokenArmsTimersAndRecordsState(t *testing.T) {
	m, out, acts := operationalMachine(t, 2)
	tok := &wire.Token{Ring: m.ring, Seq: 9, Rotation: 3}
	m.forwardToken(tok)
	if len(out.unicasts) != 1 || out.unicasts[0].dest != 3 {
		t.Fatalf("token forwarded to %v, want successor 3", out.unicasts)
	}
	var sawRetrans, sawLoss bool
	for _, a := range acts.Drain() {
		if st, ok := a.(*proto.SetTimer); ok {
			switch st.ID.Class {
			case proto.TimerTokenRetransmit:
				sawRetrans = true
			case proto.TimerTokenLoss:
				sawLoss = true
			}
		}
	}
	if !sawRetrans || !sawLoss {
		t.Fatalf("timers not armed: retrans=%v loss=%v", sawRetrans, sawLoss)
	}
	if !m.tokenRetransOn || m.lastTokenSentKey != (tokenKey{seq: 9, rotation: 3}) {
		t.Fatal("retransmission state not recorded")
	}
}

func TestTokenRetransmitTimerResendsUntilEvidence(t *testing.T) {
	m, out, _ := operationalMachine(t, 2)
	m.forwardToken(&wire.Token{Ring: m.ring, Seq: 9, Rotation: 3})
	out.unicasts = nil
	m.OnTimer(0, proto.TimerID{Class: proto.TimerTokenRetransmit})
	if len(out.unicasts) != 1 {
		t.Fatal("token not retransmitted")
	}
	if m.ctr.tokenRetransmits.Count() != 1 {
		t.Fatalf("TokenRetransmits = %d", m.ctr.tokenRetransmits.Count())
	}
	// Evidence: a data packet with a higher seq cancels retransmission.
	m.onData(0, mkData(m, 3, 10, "evidence"))
	if m.tokenRetransOn {
		t.Fatal("evidence did not cancel token retransmission")
	}
	out.unicasts = nil
	m.OnTimer(0, proto.TimerID{Class: proto.TimerTokenRetransmit})
	if len(out.unicasts) != 0 {
		t.Fatal("cancelled retransmission still fired")
	}
}

func TestDuplicateTokenIgnored(t *testing.T) {
	m, out, _ := operationalMachine(t, 2)
	tok := &wire.Token{Ring: m.ring, Seq: 9, Rotation: 3}
	m.onToken(0, tok)
	first := m.ctr.tokensReceived.Count()
	m.onToken(0, &wire.Token{Ring: m.ring, Seq: 9, Rotation: 3})
	if m.ctr.tokensReceived.Count() != first {
		t.Fatal("retransmitted token processed twice")
	}
	_ = out
}

func TestForeignEpochTokenTriggersGather(t *testing.T) {
	m, _, _ := operationalMachine(t, 2)
	newer := &wire.Token{Ring: proto.RingID{Rep: 1, Epoch: 9}, Seq: 0}
	m.onToken(0, newer)
	if m.state != StateGather {
		t.Fatalf("state = %v, want gather after newer-epoch token", m.state)
	}
}

func TestRecoveryHandshakeFlags(t *testing.T) {
	// Representative in recovery: quiesced → sets Quiet; Quiet survives a
	// rotation → sets Operational and completes.
	m, _, acts := operationalMachine(t, 1) // id 1 = rep
	m.state = StateRecovery
	m.old = nil
	tok := &wire.Token{Ring: m.ring, Seq: 0, ARU: 0}
	m.updateRecoveryHandshake(0, tok)
	if tok.Flags&wire.TokenFlagQuiet == 0 {
		t.Fatal("rep did not set Quiet when quiesced")
	}
	if m.state != StateRecovery {
		t.Fatal("rep completed before Quiet survived a rotation")
	}
	// The Quiet token comes back around.
	m.updateRecoveryHandshake(0, tok)
	if tok.Flags&wire.TokenFlagOperational == 0 {
		t.Fatal("rep did not set Operational after Quiet survived")
	}
	if m.state != StateOperational {
		t.Fatalf("state = %v after handshake completion", m.state)
	}
	acts.Drain()

	// Non-rep member still busy: clears Quiet.
	m2, _, _ := operationalMachine(t, 2)
	m2.state = StateRecovery
	m2.recQueue = [][]byte{{1}}
	tok2 := &wire.Token{Ring: m2.ring, Seq: 0, ARU: 0, Flags: wire.TokenFlagQuiet}
	m2.updateRecoveryHandshake(0, tok2)
	if tok2.Flags&wire.TokenFlagQuiet != 0 {
		t.Fatal("busy member did not clear Quiet")
	}
}

func TestMissingBeforeReflectsAru(t *testing.T) {
	m, _, _ := operationalMachine(t, 2)
	m.myAru = 7
	if m.MissingBefore(7) {
		t.Fatal("nothing missing at aru")
	}
	if !m.MissingBefore(8) {
		t.Fatal("gap above aru not reported")
	}
	m.state = StateGather
	if m.MissingBefore(100) {
		t.Fatal("MissingBefore outside operational must be false")
	}
}

func drainDeliveries(acts *proto.Actions) []proto.Delivery {
	var out []proto.Delivery
	for _, a := range acts.Drain() {
		if d, ok := a.(*proto.Deliver); ok {
			out = append(out, d.Msg)
		}
	}
	return out
}

// TestHeldDataPacketDroppedBeforeDecodeAllocs pins the active-replication
// fast path: a copy of a data packet the machine already delivered or
// holds is counted as a duplicate without being decoded — no allocation —
// while a packet from a newer ring still reaches onData and forces a
// rejoin.
func TestHeldDataPacketDroppedBeforeDecodeAllocs(t *testing.T) {
	m, _, acts := operationalMachine(t, 2)
	encode := func(p *wire.DataPacket) []byte {
		data, err := p.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	delivered := encode(mkData(m, 1, 1, "first"))
	held := encode(mkData(m, 1, 3, "third"))
	m.OnPacket(0, delivered)
	m.OnPacket(0, held)
	if got := drainDeliveries(acts); len(got) != 1 || m.myAru != 1 || m.rx.get(3) == nil {
		t.Fatalf("setup: %d deliveries, aru %d", len(got), m.myAru)
	}
	for name, data := range map[string][]byte{"delivered": delivered, "held": held} {
		before := m.ctr.duplicates.Count()
		allocs := testing.AllocsPerRun(100, func() { m.OnPacket(0, data) })
		if allocs != 0 {
			t.Fatalf("%s copy: %v allocs, want 0", name, allocs)
		}
		if n := m.ctr.duplicates.Count() - before; n != 101 {
			t.Fatalf("%s copy: %d duplicates counted, want 101", name, n)
		}
	}
	if acts.Len() != 0 {
		t.Fatalf("dropping copies emitted %d actions", acts.Len())
	}

	newer := mkData(m, 1, 1, "next ring")
	newer.Ring.Epoch++
	m.OnPacket(0, encode(newer))
	if m.State() != StateGather {
		t.Fatalf("packet from a newer ring: state %v, want gather", m.State())
	}
}

// TestReassemblyDropsReachRegistry: a continuation with no start is
// counted in srp.reassembly_dropped, from the current ring's assembler
// and from the old ring's during recovery delivery.
func TestReassemblyDropsReachRegistry(t *testing.T) {
	reg := metrics.NewRegistry()
	cfg := DefaultConfig(2)
	cfg.Metrics = reg
	m, err := NewMachine(cfg, &fakeOut{}, &proto.Actions{})
	if err != nil {
		t.Fatal(err)
	}
	m.state = StateOperational
	m.ring = proto.RingID{Rep: 1, Epoch: 5}
	m.members = newNodeSet(1, 2, 3)
	dropped := reg.Counter("srp.reassembly_dropped")

	orphan := mkData(m, 1, 1, "tail")
	orphan.Chunks[0].Flags = wire.ChunkLast
	data, err := orphan.Encode()
	if err != nil {
		t.Fatal(err)
	}
	m.OnPacket(0, data)
	if m.deliveredTo != 1 || dropped.Count() != 1 {
		t.Fatalf("current ring: delivered to %d, reassembly_dropped %d; want 1, 1", m.deliveredTo, dropped.Count())
	}

	m.old = &oldRing{ring: m.ring, asm: wire.NewAssembler()}
	m.deliverOldPacket(0, 1, orphan)
	if dropped.Count() != 2 {
		t.Fatalf("old ring: reassembly_dropped %d, want 2", dropped.Count())
	}
}
