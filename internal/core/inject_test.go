package core

import (
	"math/rand"
	"testing"

	"github.com/totem-rrp/totem/internal/proto"
	"github.com/totem-rrp/totem/internal/wire"
)

var injectStyles = []struct {
	style    proto.ReplicationStyle
	networks int
}{
	{proto.ReplicationActive, 2},
	{proto.ReplicationPassive, 2},
	{proto.ReplicationActivePassive, 3},
}

func TestCorruptedMonitorsNeverConvictHealthyFeedAfterDecay(t *testing.T) {
	for _, tc := range injectStyles {
		t.Run(tc.style.String(), func(t *testing.T) {
			rec := &recorder{}
			cfg := DefaultConfig(tc.networks, tc.style)
			rep, err := New(cfg, &rec.acts, rec.callbacks())
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			// A healthy feed: every sender's messages and every token
			// arrive on every network.
			var seq uint32
			feed := func(rounds int) {
				for i := 0; i < rounds; i++ {
					seq++
					for net := 0; net < tc.networks; net++ {
						rep.OnPacket(0, net, dataBytes(t, proto.NodeID(2+i%3), seq))
						rep.OnPacket(0, net, tokenBytes(t, seq, 0))
					}
				}
			}
			feed(10)
			if !CorruptMonitors(rep, rand.New(rand.NewSource(1))) {
				t.Fatal("CorruptMonitors did not apply")
			}
			// The scramble reaches twice the largest threshold; decay
			// forgives one unit of lag (or one problem charge) per window.
			for w := 0; w < 2*cfg.DiffThreshold; w++ {
				rep.OnTimer(0, proto.TimerID{Class: proto.TimerRRPDecay})
			}
			feed(200)
			// Sporadic losses on top, just under every fresh monitor's
			// threshold: token copies missing on the last network, each
			// released by the token timer.
			for i := 0; i < cfg.TokenDiffThreshold; i++ {
				seq++
				rep.OnPacket(0, 0, tokenBytes(t, seq, 0))
				rep.OnTimer(0, proto.TimerID{Class: proto.TimerRRPToken})
			}
			if faults := rec.drainFaults(); len(faults) != 0 {
				t.Fatalf("healthy feed convicted after decay: %v", faults)
			}
			for i, f := range rep.Faulty() {
				if f {
					t.Fatalf("network %d faulty after decay absorbed the corruption", i)
				}
			}
		})
	}
}

func TestCorruptTokenRecoversThroughTheTokenPath(t *testing.T) {
	ring := proto.RingID{Rep: 1, Epoch: 1}
	t.Run("passive", func(t *testing.T) {
		rec := &recorder{missing: true}
		p := newPassiveForTest(t, rec, 2)
		p.OnPacket(0, 0, tokenBytes(t, 10, 0)) // genuine token held behind a gap
		if !CorruptToken(p, ring, 7, 0, rand.New(rand.NewSource(1))) {
			t.Fatal("CorruptToken did not apply")
		}
		if got := p.met.tokensDiscarded.Count(); got != 1 {
			t.Fatalf("tokens discarded = %d, want the displaced genuine token counted", got)
		}
		// The hold timer releases the forged (stale) token; the SRP's
		// duplicate filter then drops it.
		p.OnTimer(0, proto.TimerID{Class: proto.TimerRRPToken})
		if len(rec.delivered) != 1 {
			t.Fatalf("deliveries = %d, want the forged token released once", len(rec.delivered))
		}
		if seq, _, _ := wire.PeekTokenSeq(rec.delivered[0]); seq != 7 {
			t.Fatalf("released seq %d, want the forged 7", seq)
		}
	})
	for _, tc := range injectStyles {
		if tc.style == proto.ReplicationPassive {
			continue
		}
		t.Run(tc.style.String(), func(t *testing.T) {
			rec := &recorder{}
			rep, err := New(DefaultConfig(tc.networks, tc.style), &rec.acts, rec.callbacks())
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			if !CorruptToken(rep, ring, 10, 0, rand.New(rand.NewSource(1))) {
				t.Fatal("CorruptToken did not apply")
			}
			// The poisoned generation filter discards the ring's genuine
			// next token on every network...
			for net := 0; net < tc.networks; net++ {
				rep.OnPacket(0, net, tokenBytes(t, 11, 0))
			}
			if len(rec.delivered) != 0 {
				t.Fatalf("genuine token passed a poisoned filter: %d deliveries", len(rec.delivered))
			}
			// ...until the token-loss reformation installs a new ring, whose
			// tokens compare fresh again.
			next := &wire.Token{Ring: proto.RingID{Rep: 1, Epoch: 2}, Seq: 1}
			data, err := next.Encode()
			if err != nil {
				t.Fatal(err)
			}
			for net := 0; net < tc.networks; net++ {
				rep.OnPacket(0, net, data)
			}
			if len(rec.delivered) != 1 {
				t.Fatalf("new ring's token not gated through: %d deliveries", len(rec.delivered))
			}
		})
	}
	t.Run("none", func(t *testing.T) {
		rec := &recorder{}
		rep, err := New(DefaultConfig(1, proto.ReplicationNone), &rec.acts, rec.callbacks())
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		rng := rand.New(rand.NewSource(1))
		if CorruptMonitors(rep, rng) || CorruptToken(rep, ring, 1, 0, rng) {
			t.Fatal("the unreplicated baseline has no monitors or token gate to corrupt")
		}
	})
}
