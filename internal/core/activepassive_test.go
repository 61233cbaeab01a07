package core

import (
	"errors"
	"testing"

	"github.com/totem-rrp/totem/internal/proto"
)

func newAPForTest(t *testing.T, rec *recorder, networks, k int) *activePassive {
	t.Helper()
	cfg := DefaultConfig(networks, proto.ReplicationActivePassive)
	cfg.K = k
	rep, err := New(cfg, &rec.acts, rec.callbacks())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ap, ok := rep.(*activePassive)
	if !ok {
		t.Fatalf("want *activePassive, got %T", rep)
	}
	return ap
}

func TestActivePassiveSendsKCopies(t *testing.T) {
	rec := &recorder{}
	ap := newAPForTest(t, rec, 3, 2)
	ap.SendMessage(dataBytes(t, 1, 1))
	counts := rec.drainSends(t, 3)
	total := counts[0] + counts[1] + counts[2]
	if total != 2 {
		t.Fatalf("sends = %v, want K=2 copies", counts)
	}
}

func TestActivePassiveWindowAdvancesRoundRobin(t *testing.T) {
	// Paper §7: after sending via n^m, the next send uses networks
	// n^(m+1..m+K). Over N sends the load is perfectly balanced.
	rec := &recorder{}
	ap := newAPForTest(t, rec, 3, 2)
	for i := 0; i < 3; i++ {
		ap.SendMessage(dataBytes(t, 1, uint32(i+1)))
	}
	if got := rec.drainSends(t, 3); got[0] != 2 || got[1] != 2 || got[2] != 2 {
		t.Fatalf("sends = %v, want 2 per network over a full rotation", got)
	}
}

func TestActivePassiveGatesTokenOnKCopies(t *testing.T) {
	rec := &recorder{}
	ap := newAPForTest(t, rec, 3, 2)
	tok := tokenBytes(t, 10, 0)
	ap.OnPacket(0, 0, tok)
	if len(rec.delivered) != 0 {
		t.Fatal("token delivered after 1 of K=2 copies")
	}
	ap.OnPacket(0, 2, tok)
	if len(rec.delivered) != 1 {
		t.Fatalf("token not delivered after K copies: %d", len(rec.delivered))
	}
	// A third (stray) copy is ignored.
	ap.OnPacket(0, 1, tok)
	if len(rec.delivered) != 1 {
		t.Fatal("extra copy delivered twice")
	}
}

func TestActivePassiveTimeoutReleasesToken(t *testing.T) {
	rec := &recorder{}
	ap := newAPForTest(t, rec, 3, 2)
	ap.OnPacket(0, 1, tokenBytes(t, 10, 0))
	ap.OnTimer(0, proto.TimerID{Class: proto.TimerRRPToken})
	if len(rec.delivered) != 1 {
		t.Fatal("timeout did not release token")
	}
	if ap.met.tokensTimedOut.Count() != 1 {
		t.Fatalf("TokensTimedOut = %d", ap.met.tokensTimedOut.Count())
	}
}

func TestActivePassiveMessagesPassThrough(t *testing.T) {
	rec := &recorder{}
	ap := newAPForTest(t, rec, 3, 2)
	msg := dataBytes(t, 4, 7)
	ap.OnPacket(0, 0, msg)
	ap.OnPacket(0, 1, msg)
	if len(rec.delivered) != 2 {
		t.Fatalf("deliveries = %d; duplicates are the SRP's concern (paper §7)", len(rec.delivered))
	}
}

func TestActivePassiveFaultReducesEffectiveK(t *testing.T) {
	rec := &recorder{}
	ap := newAPForTest(t, rec, 3, 2)
	ap.fault[0] = true
	ap.fault[1] = true
	// Only one usable network: sends collapse to one copy and the token
	// gate accepts a single copy.
	ap.SendMessage(dataBytes(t, 1, 1))
	counts := rec.drainSends(t, 3)
	if counts[0] != 0 || counts[1] != 0 || counts[2] != 1 {
		t.Fatalf("sends = %v", counts)
	}
	ap.OnPacket(0, 2, tokenBytes(t, 5, 0))
	if len(rec.delivered) != 1 {
		t.Fatal("token gated forever with effective K reduced")
	}
}

func TestActivePassiveMonitorFlagsDeadNetwork(t *testing.T) {
	rec := &recorder{}
	ap := newAPForTest(t, rec, 3, 2)
	var seq uint32
	for i := 0; i <= ap.cfg.DiffThreshold*2; i++ {
		seq++
		ap.OnPacket(0, i%2, dataBytes(t, 3, seq)) // network 2 silent
	}
	faults := rec.drainFaults()
	if len(faults) != 1 || faults[0].Network != 2 {
		t.Fatalf("faults = %v, want network 2", faults)
	}
}

func TestActivePassiveTokenMonitorFlagsDeadNetworkAndReadmitsIt(t *testing.T) {
	rec := &recorder{}
	ap := newAPForTest(t, rec, 3, 2)
	ap.Start(0)
	decayArmed := false
	for _, a := range rec.acts.Drain() {
		if st, ok := a.(*proto.SetTimer); ok && st.ID.Class == proto.TimerRRPDecay {
			decayArmed = true
		}
	}
	if !decayArmed {
		t.Fatal("Start did not arm the decay timer")
	}
	var seq uint32
	// tokensOn delivers n token generations, each copied on networks 0 and
	// 1 only: network 2 is dead.
	tokensOn := func(n int) {
		for i := 0; i < n; i++ {
			seq++
			ap.OnPacket(0, 0, tokenBytes(t, seq, 0))
			ap.OnPacket(0, 1, tokenBytes(t, seq, 0))
		}
	}
	tokensOn(ap.cfg.TokenDiffThreshold + 1)
	faults := rec.drainFaults()
	if len(faults) != 1 || faults[0].Network != 2 {
		t.Fatalf("faults = %v, want the token monitor to flag network 2", faults)
	}

	// Tokens now go on the two usable networks, plus one probation probe
	// on the faulty one.
	ap.SendToken(2, tokenBytes(t, seq+1, 0))
	if got := rec.drainSends(t, 3); got[0] != 1 || got[1] != 1 || got[2] != 1 {
		t.Fatalf("token sends = %v, want K=2 copies on the usable networks and one probe", got)
	}

	// Receptions on the healed network through a full probation readmit it.
	for w := 0; w < ap.cfg.ProbationWindows; w++ {
		ap.OnPacket(0, 2, dataBytes(t, 3, seq))
		ap.OnTimer(0, proto.TimerID{Class: proto.TimerRRPDecay})
	}
	if ap.Faulty()[2] {
		t.Fatal("network 2 not readmitted after its probation")
	}
	if clears := rec.drainClears(); len(clears) != 1 || clears[0].Network != 2 {
		t.Fatalf("clears = %v, want one for network 2", clears)
	}
	// Lag accrued while peers still exclude the network is discarded
	// during the readmission grace instead of convicting it again.
	tokensOn(2 * ap.cfg.TokenDiffThreshold)
	if faults := rec.drainFaults(); len(faults) != 0 {
		t.Fatalf("re-convicted during the readmission grace: %v", faults)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantErr error
	}{
		{"valid active", func(c *Config) {}, nil},
		{"zero networks", func(c *Config) { c.Networks = 0 }, ErrBadNetworks},
		{"active one network", func(c *Config) { c.Networks = 1 }, ErrBadNetworks},
		{"bad style", func(c *Config) { c.Style = 0 }, ErrBadStyle},
		{"zero timeout", func(c *Config) { c.TokenTimeout = 0 }, ErrBadTimer},
		{"zero hold", func(c *Config) { c.TokenHold = 0 }, ErrBadTimer},
		{"zero decay", func(c *Config) { c.DecayInterval = 0 }, ErrBadTimer},
		{"zero problem threshold", func(c *Config) { c.ProblemThreshold = 0 }, ErrBadTimer},
		{"zero diff threshold", func(c *Config) { c.DiffThreshold = 0 }, ErrBadTimer},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(2, proto.ReplicationActive)
			tc.mutate(&cfg)
			err := cfg.Validate()
			if tc.wantErr == nil && err != nil {
				t.Fatalf("Validate: %v", err)
			}
			if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Fatalf("Validate = %v, want %v", err, tc.wantErr)
			}
		})
	}
}

func TestConfigValidationActivePassive(t *testing.T) {
	cfg := DefaultConfig(2, proto.ReplicationActivePassive)
	if err := cfg.Validate(); !errors.Is(err, ErrBadNetworks) {
		t.Fatalf("2 networks must be rejected for active-passive (paper §7): %v", err)
	}
	cfg = DefaultConfig(3, proto.ReplicationActivePassive)
	cfg.K = 1
	if err := cfg.Validate(); !errors.Is(err, ErrBadK) {
		t.Fatalf("K=1 must be rejected: %v", err)
	}
	cfg.K = 3
	if err := cfg.Validate(); !errors.Is(err, ErrBadK) {
		t.Fatalf("K=N must be rejected: %v", err)
	}
	cfg.K = 2
	if err := cfg.Validate(); err != nil {
		t.Fatalf("K=2, N=3 must be accepted: %v", err)
	}
}

func TestNewRejectsNilCallbacks(t *testing.T) {
	var acts proto.Actions
	cfg := DefaultConfig(2, proto.ReplicationActive)
	if _, err := New(cfg, &acts, Callbacks{}); err == nil {
		t.Fatal("nil callbacks accepted")
	}
	if _, err := New(cfg, nil, Callbacks{Deliver: func(proto.Time, []byte) {}, Missing: func(uint32) bool { return false }}); err == nil {
		t.Fatal("nil action buffer accepted")
	}
}

func TestNoneBaselineUsesNetworkZero(t *testing.T) {
	rec := &recorder{}
	cfg := DefaultConfig(1, proto.ReplicationNone)
	rep, err := New(cfg, &rec.acts, rec.callbacks())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep.SendMessage(dataBytes(t, 1, 1))
	rep.SendToken(2, tokenBytes(t, 1, 0))
	for _, a := range rec.acts.Drain() {
		if sp, ok := a.(*proto.SendPacket); ok && sp.Network != 0 {
			t.Fatalf("baseline sent on network %d", sp.Network)
		}
	}
	rep.OnPacket(0, 0, dataBytes(t, 2, 2))
	if len(rec.delivered) != 1 {
		t.Fatal("baseline did not pass packet up")
	}
}

func TestReadmitClearsFaultAndMonitors(t *testing.T) {
	rec := &recorder{missing: false}
	p := newPassiveForTest(t, rec, 2)
	var seq uint32
	for i := 0; i <= p.cfg.DiffThreshold; i++ {
		seq++
		p.OnPacket(0, 0, dataBytes(t, 3, seq))
	}
	if f := p.Faulty(); !f[1] {
		t.Fatal("setup: network 1 not faulted")
	}
	p.Readmit(1)
	if f := p.Faulty(); f[1] {
		t.Fatal("readmit did not clear the fault")
	}
	// A single further reception on network 0 must not instantly re-fault
	// network 1: its counter was reset to the maximum.
	rec.acts.Drain()
	seq++
	p.OnPacket(0, 0, dataBytes(t, 3, seq))
	if f := p.Faulty(); f[1] {
		t.Fatal("readmitted network instantly re-faulted")
	}
	// Sends use it again.
	p.SendMessage(dataBytes(t, 1, seq+1))
	p.SendMessage(dataBytes(t, 1, seq+2))
	counts := rec.drainSends(t, 2)
	if counts[1] == 0 {
		t.Fatalf("sends after readmit = %v, want round robin over both", counts)
	}
}

func TestReadmitActiveUnblocksTokenGate(t *testing.T) {
	rec := &recorder{}
	a := newActiveForTest(t, rec, 2)
	a.fault[0] = true
	// A token generation is mid-gather on the surviving network only.
	a.OnPacket(0, 1, tokenBytes(t, 30, 0))
	if len(rec.delivered) != 1 {
		t.Fatal("setup: token should pass with only one usable network")
	}
	// New generation arrives on net 1, then the repaired net 0 is
	// readmitted mid-gather: the gate must not stall on net 0.
	a.OnPacket(0, 1, tokenBytes(t, 40, 0))
	a.Readmit(0)
	if len(rec.delivered) != 2 {
		t.Fatal("readmit stalled the in-flight token gate")
	}
	if f := a.Faulty(); f[0] {
		t.Fatal("fault flag not cleared")
	}
}

func TestReadmitNoopWhenNotFaulty(t *testing.T) {
	rec := &recorder{}
	a := newActiveForTest(t, rec, 2)
	a.Readmit(0) // not faulty: no-op
	a.Readmit(9) // out of range: no-op
	if f := a.Faulty(); f[0] || f[1] {
		t.Fatalf("faulty = %v", f)
	}
}

// TestActivePassiveGraceHeldWhilePeerExcludes: a predecessor serving a
// longer probation than this node keeps excluding the readmitted network
// past this node's own-probation grace. Its exclusion holds the grace
// open (no re-conviction to roll around the ring), but only up to twice
// that grace: a peer that never readmits still gets the network convicted.
func TestActivePassiveGraceHeldWhilePeerExcludes(t *testing.T) {
	rec := &recorder{}
	ap := newAPForTest(t, rec, 3, 2)
	var seq uint32
	// excluded delivers n token generations on networks 0 and 1 only, as a
	// predecessor that has network 2 faulty sends them.
	excluded := func(n int) {
		for i := 0; i < n; i++ {
			seq++
			ap.OnPacket(0, 0, tokenBytes(t, seq, 0))
			ap.OnPacket(0, 1, tokenBytes(t, seq, 0))
		}
	}
	decay := func() { ap.OnTimer(0, proto.TimerID{Class: proto.TimerRRPDecay}) }
	excluded(ap.cfg.TokenDiffThreshold + 1)
	if !ap.Faulty()[2] {
		t.Fatal("network 2 not convicted")
	}
	for ap.Faulty()[2] {
		ap.OnPacket(0, 2, dataBytes(t, 3, seq))
		decay()
	}
	rec.acts.Drain()

	// The grace is the probation just served; exclusion arriving in every
	// window holds it open past that, up to twice as long.
	grace := ap.cfg.ProbationWindows
	windows := 0
	for !ap.Faulty()[2] && windows < 4*grace {
		excluded(2 * ap.cfg.TokenDiffThreshold)
		decay()
		windows++
	}
	if windows != 2*grace+1 {
		t.Fatalf("re-convicted in window %d after readmission, want %d (the first after twice the %d-window grace)", windows, 2*grace+1, grace)
	}
	if faults := rec.drainFaults(); len(faults) != 1 || faults[0].Network != 2 {
		t.Fatalf("faults = %v, want network 2 convicted once", faults)
	}
}
