package stack

import (
	"testing"
	"time"

	"github.com/totem-rrp/totem/internal/proto"
	"github.com/totem-rrp/totem/internal/srp"
	"github.com/totem-rrp/totem/internal/wire"
)

func TestNewValidatesBothLayers(t *testing.T) {
	bad := DefaultConfig(0, 2, proto.ReplicationActive) // zero node ID
	if _, err := New(bad); err == nil {
		t.Fatal("zero node ID accepted")
	}
	bad = DefaultConfig(1, 2, proto.ReplicationActivePassive) // N < 3
	if _, err := New(bad); err == nil {
		t.Fatal("active-passive on two networks accepted")
	}
	good := DefaultConfig(1, 2, proto.ReplicationActive)
	n, err := New(good)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if n.ID() != 1 {
		t.Fatalf("ID = %v", n.ID())
	}
	if n.Replicator().Style() != proto.ReplicationActive {
		t.Fatalf("style = %v", n.Replicator().Style())
	}
}

func TestStartFormsSingletonAndEmitsActions(t *testing.T) {
	n, err := New(DefaultConfig(1, 1, proto.ReplicationNone))
	if err != nil {
		t.Fatal(err)
	}
	acts := n.Start(0)
	var sawConfig bool
	for _, a := range acts {
		if c, ok := a.(proto.Config); ok && !c.Change.Transitional {
			sawConfig = true
			if len(c.Change.Members) != 1 || c.Change.Members[0] != 1 {
				t.Fatalf("singleton config %v", c.Change)
			}
		}
	}
	if !sawConfig {
		t.Fatal("no regular configuration emitted at singleton start")
	}
	if n.SRP().State() != srp.StateOperational {
		t.Fatalf("state = %v", n.SRP().State())
	}
}

func TestBroadcastsRouteThroughReplicator(t *testing.T) {
	// With active replication on two networks, a join broadcast at Start
	// must appear as SendPacket actions on both networks.
	n, err := New(DefaultConfig(1, 2, proto.ReplicationActive))
	if err != nil {
		t.Fatal(err)
	}
	acts := n.Start(0)
	perNet := map[int]int{}
	for _, a := range acts {
		if sp, ok := a.(*proto.SendPacket); ok {
			if k, err := wire.PeekKind(sp.Data); err == nil && k == wire.KindJoin {
				perNet[sp.Network]++
			}
		}
	}
	if perNet[0] == 0 || perNet[1] == 0 {
		t.Fatalf("join not replicated on both networks: %v", perNet)
	}
	if perNet[0] != perNet[1] {
		t.Fatalf("asymmetric join replication: %v", perNet)
	}
}

func TestTimerRouting(t *testing.T) {
	n, err := New(DefaultConfig(1, 2, proto.ReplicationActive))
	if err != nil {
		t.Fatal(err)
	}
	n.Start(0)
	// An RRP decay timer expiry must re-arm itself (handled by the RRP
	// layer, not the SRP).
	acts := n.OnTimer(time.Second, proto.TimerID{Class: proto.TimerRRPDecay})
	rearmed := false
	for _, a := range acts {
		if st, ok := a.(*proto.SetTimer); ok && st.ID.Class == proto.TimerRRPDecay {
			rearmed = true
		}
	}
	if !rearmed {
		t.Fatal("decay timer not routed to the RRP layer")
	}
	// An SRP merge-detect timer must be routed to the SRP (the singleton
	// rep re-arms it and broadcasts).
	acts = n.OnTimer(2*time.Second, proto.TimerID{Class: proto.TimerMergeDetect})
	sawMD := false
	for _, a := range acts {
		if sp, ok := a.(*proto.SendPacket); ok {
			if k, err := wire.PeekKind(sp.Data); err == nil && k == wire.KindMergeDetect {
				sawMD = true
			}
		}
	}
	if !sawMD {
		t.Fatal("merge-detect timer not routed to the SRP")
	}
}

func TestSubmitBackpressureSurfaces(t *testing.T) {
	cfg := DefaultConfig(1, 1, proto.ReplicationNone)
	cfg.SRP.MaxQueued = 2
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Not started: rejected.
	if ok, _ := n.Submit(0, []byte("x")); ok {
		t.Fatal("submit accepted before start")
	}
	n.Start(0)
	// Singleton drains instantly, so acceptance is always true here; the
	// backpressure path is covered by srp tests. Verify the action flow.
	ok, acts := n.Submit(0, []byte("hello"))
	if !ok {
		t.Fatal("submit rejected")
	}
	delivered := false
	for _, a := range acts {
		if d, ok := a.(*proto.Deliver); ok && string(d.Msg.Payload) == "hello" {
			delivered = true
		}
	}
	if !delivered {
		t.Fatal("singleton did not deliver its own message")
	}
	if n.Backlog() != 0 {
		t.Fatalf("backlog = %d", n.Backlog())
	}
}

func TestMissingCallbackWiring(t *testing.T) {
	// The passive replicator must see the SRP's gap state through the
	// Missing callback: a token with a sequence number above the SRP's
	// aru must be buffered, not passed up.
	cfg := DefaultConfig(1, 2, proto.ReplicationPassive)
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Start(0)
	// Craft a token for the singleton's ring with seq 5: the SRP has
	// seen nothing, so MissingBefore(5) is true and the replicator holds
	// the token.
	ring := n.SRP().Ring()
	tok := &wire.Token{Ring: ring, Seq: 5}
	data, err := tok.Encode()
	if err != nil {
		t.Fatal(err)
	}
	acts := n.OnPacket(0, 0, data)
	held := false
	for _, a := range acts {
		if st, ok := a.(*proto.SetTimer); ok && st.ID.Class == proto.TimerRRPToken {
			held = true
		}
	}
	if !held {
		t.Fatal("token with outstanding messages was not buffered (Missing callback broken)")
	}
	if got := n.Metrics().Counter("srp.tokens_received").Count(); got != 0 {
		t.Fatalf("token leaked into the SRP: %d", got)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := DefaultConfig(7, 3, proto.ReplicationActivePassive)
	if cfg.SRP.ID != 7 {
		t.Fatalf("SRP.ID = %v", cfg.SRP.ID)
	}
	if cfg.RRP.Networks != 3 || cfg.RRP.Style != proto.ReplicationActivePassive {
		t.Fatalf("RRP config %+v", cfg.RRP)
	}
	if err := cfg.SRP.Validate(); err != nil {
		t.Fatalf("SRP default invalid: %v", err)
	}
	if err := cfg.RRP.Validate(); err != nil {
		t.Fatalf("RRP default invalid: %v", err)
	}
}
