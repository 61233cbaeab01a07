package core

import (
	"strings"
	"testing"

	"github.com/totem-rrp/totem/internal/proto"
	"github.com/totem-rrp/totem/internal/wire"
)

// recorder captures what a replicator delivers upward and emits downward.
type recorder struct {
	acts      proto.Actions
	delivered [][]byte
	missing   bool
}

func (r *recorder) callbacks() Callbacks {
	return Callbacks{
		Deliver: func(now proto.Time, data []byte) {
			r.delivered = append(r.delivered, data)
		},
		Missing: func(seq uint32) bool { return r.missing },
	}
}

// drainSends extracts SendPacket actions, returning per-network counts.
func (r *recorder) drainSends(t *testing.T, networks int) []int {
	t.Helper()
	counts := make([]int, networks)
	for _, a := range r.acts.Drain() {
		if sp, ok := a.(*proto.SendPacket); ok {
			counts[sp.Network]++
		}
	}
	return counts
}

// drainFaults extracts fault reports.
func (r *recorder) drainFaults() []proto.FaultReport {
	var out []proto.FaultReport
	for _, a := range r.acts.Drain() {
		if f, ok := a.(proto.Fault); ok {
			out = append(out, f.Report)
		}
	}
	return out
}

func tokenBytes(t *testing.T, seq, rot uint32) []byte {
	t.Helper()
	tok := &wire.Token{Ring: proto.RingID{Rep: 1, Epoch: 1}, Seq: seq, Rotation: rot}
	data, err := tok.Encode()
	if err != nil {
		t.Fatalf("encode token: %v", err)
	}
	return data
}

func dataBytes(t *testing.T, sender proto.NodeID, seq uint32) []byte {
	t.Helper()
	p := &wire.DataPacket{
		Ring: proto.RingID{Rep: 1, Epoch: 1}, Sender: sender, Seq: seq,
		Chunks: []wire.Chunk{{Flags: wire.ChunkFirst | wire.ChunkLast, Data: []byte("x")}},
	}
	data, err := p.Encode()
	if err != nil {
		t.Fatalf("encode data: %v", err)
	}
	return data
}

func newActiveForTest(t *testing.T, rec *recorder, networks int) *active {
	t.Helper()
	cfg := DefaultConfig(networks, proto.ReplicationActive)
	rep, err := New(cfg, &rec.acts, rec.callbacks())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	a, ok := rep.(*active)
	if !ok {
		t.Fatalf("want *active, got %T", rep)
	}
	return a
}

func TestActiveSendsOnAllNetworks(t *testing.T) {
	rec := &recorder{}
	a := newActiveForTest(t, rec, 3)
	a.SendMessage(dataBytes(t, 1, 1))
	if got := rec.drainSends(t, 3); got[0] != 1 || got[1] != 1 || got[2] != 1 {
		t.Fatalf("sends = %v, want one per network", got)
	}
	a.SendToken(2, tokenBytes(t, 1, 0))
	if got := rec.drainSends(t, 3); got[0] != 1 || got[1] != 1 || got[2] != 1 {
		t.Fatalf("token sends = %v", got)
	}
}

func TestActiveSkipsFaultyNetworkOnSend(t *testing.T) {
	rec := &recorder{}
	a := newActiveForTest(t, rec, 3)
	a.fault[1] = true
	a.SendMessage(dataBytes(t, 1, 1))
	if got := rec.drainSends(t, 3); got[0] != 1 || got[1] != 0 || got[2] != 1 {
		t.Fatalf("sends = %v, want to skip faulty network 1 (paper §3)", got)
	}
}

func TestActiveDeliversMessagesImmediately(t *testing.T) {
	// Requirement A1 is met upstream by the SRP sequence filter; the RRP
	// layer must deliver each copy at first reception for low latency.
	rec := &recorder{}
	a := newActiveForTest(t, rec, 2)
	msg := dataBytes(t, 1, 5)
	a.OnPacket(0, 0, msg)
	a.OnPacket(0, 1, msg)
	if len(rec.delivered) != 2 {
		t.Fatalf("delivered %d copies, want 2 (dedup is SRP's job)", len(rec.delivered))
	}
}

func TestActiveGatesTokenUntilAllCopies(t *testing.T) {
	// Requirements A2/A3: the token goes up only when received on every
	// non-faulty network, so all preceding messages have arrived and no
	// network lags behind.
	rec := &recorder{}
	a := newActiveForTest(t, rec, 3)
	tok := tokenBytes(t, 10, 0)
	a.OnPacket(0, 0, tok)
	if len(rec.delivered) != 0 {
		t.Fatal("token delivered after first copy")
	}
	a.OnPacket(0, 2, tok)
	if len(rec.delivered) != 0 {
		t.Fatal("token delivered after second of three copies")
	}
	a.OnPacket(0, 1, tok)
	if len(rec.delivered) != 1 {
		t.Fatalf("token not delivered after all copies: %d", len(rec.delivered))
	}
	if a.met.tokensGated.Count() != 1 {
		t.Fatalf("TokensGated = %d", a.met.tokensGated.Count())
	}
}

func TestActiveIgnoresCopiesAfterDelivery(t *testing.T) {
	rec := &recorder{}
	a := newActiveForTest(t, rec, 2)
	tok := tokenBytes(t, 10, 0)
	a.OnPacket(0, 0, tok)
	a.OnPacket(0, 1, tok)
	if len(rec.delivered) != 1 {
		t.Fatalf("want 1 delivery, got %d", len(rec.delivered))
	}
	a.OnPacket(0, 0, tok) // late duplicate
	if len(rec.delivered) != 1 {
		t.Fatal("late token copy delivered twice")
	}
	if a.met.tokensDiscarded.Count() == 0 {
		t.Fatal("late copy not counted as discarded")
	}
}

func TestActiveIgnoresOlderTokenGenerations(t *testing.T) {
	// Requirement A2: a straggler token from a slow network must never
	// trigger anything.
	rec := &recorder{}
	a := newActiveForTest(t, rec, 2)
	newTok := tokenBytes(t, 20, 0)
	oldTok := tokenBytes(t, 10, 0)
	a.OnPacket(0, 0, newTok)
	a.OnPacket(0, 0, oldTok)
	if len(rec.delivered) != 0 {
		t.Fatal("stale token caused delivery")
	}
	a.OnPacket(0, 1, newTok)
	if len(rec.delivered) != 1 {
		t.Fatal("gating broken after stale token")
	}
}

func TestActiveRotationCounterDistinguishesIdleTokens(t *testing.T) {
	rec := &recorder{}
	a := newActiveForTest(t, rec, 2)
	t1 := tokenBytes(t, 5, 1)
	t2 := tokenBytes(t, 5, 2) // same seq, next rotation (idle ring)
	a.OnPacket(0, 0, t1)
	a.OnPacket(0, 1, t1)
	a.OnPacket(0, 0, t2)
	a.OnPacket(0, 1, t2)
	if len(rec.delivered) != 2 {
		t.Fatalf("idle-ring rotations delivered %d, want 2", len(rec.delivered))
	}
}

func TestActiveTokenTimerReleasesToken(t *testing.T) {
	// Requirement A4: progress even if a copy is lost.
	rec := &recorder{}
	a := newActiveForTest(t, rec, 2)
	a.OnPacket(0, 0, tokenBytes(t, 10, 0))
	a.OnTimer(a.cfg.TokenTimeout, proto.TimerID{Class: proto.TimerRRPToken})
	if len(rec.delivered) != 1 {
		t.Fatal("timer did not release the token")
	}
	if a.met.tokensTimedOut.Count() != 1 {
		t.Fatalf("TokensTimedOut = %d", a.met.tokensTimedOut.Count())
	}
	// The copy arriving after the timeout is ignored (A4).
	a.OnPacket(0, 1, tokenBytes(t, 10, 0))
	if len(rec.delivered) != 1 {
		t.Fatal("late copy after timeout delivered again")
	}
}

func TestActiveProblemCounterDeclaresNetworkFaulty(t *testing.T) {
	// Requirement A5: a permanent network failure is eventually detected.
	rec := &recorder{}
	a := newActiveForTest(t, rec, 2)
	var seq uint32
	for i := 0; i < a.cfg.ProblemThreshold; i++ {
		seq += 10
		a.OnPacket(0, 0, tokenBytes(t, seq, 0)) // network 1 never delivers
		a.OnTimer(0, proto.TimerID{Class: proto.TimerRRPToken})
	}
	faults := rec.drainFaults()
	if len(faults) != 1 || faults[0].Network != 1 {
		t.Fatalf("faults = %v, want network 1 flagged", faults)
	}
	if got := a.Faulty(); !got[1] || got[0] {
		t.Fatalf("Faulty() = %v", got)
	}
	// After the fault, a token needs only the surviving network.
	rec.delivered = nil
	a.OnPacket(0, 0, tokenBytes(t, seq+10, 0))
	if len(rec.delivered) != 1 {
		t.Fatal("token still gated on faulty network")
	}
}

func TestActiveDecayForgivesSporadicLoss(t *testing.T) {
	// Requirement A6: sporadic token loss must not accumulate to a fault.
	rec := &recorder{}
	a := newActiveForTest(t, rec, 2)
	var seq uint32
	for round := 0; round < 3*a.cfg.ProblemThreshold; round++ {
		seq += 10
		a.OnPacket(0, 0, tokenBytes(t, seq, 0))
		a.OnTimer(0, proto.TimerID{Class: proto.TimerRRPToken}) // loss on net 1
		// Decay between losses (sporadic pattern).
		a.OnTimer(0, proto.TimerID{Class: proto.TimerRRPDecay})
	}
	if faults := rec.drainFaults(); len(faults) != 0 {
		t.Fatalf("sporadic loss raised faults: %v", faults)
	}
}

func TestActiveNeverDisablesLastNetwork(t *testing.T) {
	rec := &recorder{}
	a := newActiveForTest(t, rec, 2)
	a.fault[0] = true
	a.markFaulty(0, 1, "test")
	if got := a.Faulty(); got[1] {
		t.Fatal("last usable network was disabled")
	}
	faults := rec.drainFaults()
	if len(faults) != 1 || !strings.Contains(faults[0].Reason, "last usable") {
		t.Fatalf("faults = %v", faults)
	}
}

func TestActiveTimerWithoutTokenIsNoop(t *testing.T) {
	rec := &recorder{}
	a := newActiveForTest(t, rec, 2)
	a.OnTimer(0, proto.TimerID{Class: proto.TimerRRPToken})
	if len(rec.delivered) != 0 {
		t.Fatal("spurious timer delivered something")
	}
}

func TestActiveStartArmsDecayTimer(t *testing.T) {
	rec := &recorder{}
	a := newActiveForTest(t, rec, 2)
	a.Start(0)
	found := false
	for _, act := range rec.acts.Drain() {
		if st, ok := act.(*proto.SetTimer); ok && st.ID.Class == proto.TimerRRPDecay {
			found = true
			if st.After != a.cfg.DecayInterval {
				t.Fatalf("decay interval %v", st.After)
			}
		}
	}
	if !found {
		t.Fatal("decay timer not armed at Start")
	}
}

func TestActiveFigure1Scenarios(t *testing.T) {
	// Figure 1 of the paper: the six interleavings of two tokens sent via
	// two networks. Whatever the arrival order, exactly two token
	// generations must be delivered, in generation order.
	type arrival struct {
		net int
		tok int // 1 or 2
	}
	scenarios := [][]arrival{
		{{0, 1}, {0, 2}, {1, 1}, {1, 2}}, // both arrive in order, x first
		{{0, 1}, {1, 1}, {0, 2}, {1, 2}}, // interleaved
		{{0, 1}, {1, 1}, {1, 2}, {0, 2}}, // second swaps networks
		{{1, 1}, {0, 1}, {0, 2}, {1, 2}}, // y's copy of 1 first
		{{1, 1}, {0, 1}, {1, 2}, {0, 2}},
		{{1, 1}, {1, 2}, {0, 1}, {0, 2}}, // network 1 runs far ahead
	}
	toks := map[int][]byte{1: tokenBytes(t, 10, 0), 2: tokenBytes(t, 20, 0)}
	// When a copy of token 2 arrives before token 1 has gathered all its
	// copies, the Fig. 2 algorithm supersedes token 1 (in a live ring
	// token 1 would already have been released by the token timer); in
	// the other interleavings both generations are delivered, in order.
	wantDeliveries := []int{1, 2, 2, 2, 2, 1}
	for i, sc := range scenarios {
		rec := &recorder{}
		a := newActiveForTest(t, rec, 2)
		for _, ar := range sc {
			a.OnPacket(0, ar.net, toks[ar.tok])
		}
		if len(rec.delivered) != wantDeliveries[i] {
			t.Fatalf("scenario %d: deliveries %d, want %d", i+1, len(rec.delivered), wantDeliveries[i])
		}
		// Token 2 (the newest generation) must always be delivered last.
		if last := rec.delivered[len(rec.delivered)-1]; &last[0] != &toks[2][0] {
			t.Fatalf("scenario %d: newest token not delivered last", i+1)
		}
		// In no scenario may a token generation be delivered twice
		// (requirement A2: no spurious retransmission triggers).
		seen := map[string]bool{}
		for _, d := range rec.delivered {
			s := string(d)
			if seen[s] {
				t.Fatalf("scenario %d: token delivered twice", i+1)
			}
			seen[s] = true
		}
	}
}
