package sim

import (
	"fmt"
	"testing"
	"time"

	"github.com/totem-rrp/totem/internal/proto"
	"github.com/totem-rrp/totem/internal/stack"
	"github.com/totem-rrp/totem/internal/trace"
	"github.com/totem-rrp/totem/internal/wire"
)

func TestRestartRejoinsRing(t *testing.T) {
	c := mustCluster(t, baseConfig(3, 2, proto.ReplicationPassive))
	c.Start()
	waitRing(t, c, 3*time.Second)

	c.Crash(3)
	// The survivors reform without the crashed node.
	ok := c.RunUntil(func() bool {
		for _, id := range []proto.NodeID{1, 2} {
			if len(c.Node(id).Stack.SRP().Members()) != 2 {
				return false
			}
		}
		return true
	}, 10*time.Millisecond, 3*time.Second)
	if !ok {
		t.Fatal("survivors did not reform a 2-node ring")
	}

	if err := c.Restart(3); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	if got := c.Node(3).Incarnation(); got != 1 {
		t.Fatalf("Incarnation = %d, want 1", got)
	}
	waitRing(t, c, 5*time.Second)

	// The reborn node is a full member again: traffic flows and the
	// never-crashed nodes agree on the order.
	for i := 0; i < 10; i++ {
		for _, id := range c.NodeIDs() {
			if !c.Submit(id, []byte(fmt.Sprintf("%v-%d", id, i))) {
				t.Fatalf("submit rejected for %v #%d", id, i)
			}
		}
	}
	c.Run(2 * time.Second)
	a, b := c.Node(1).Delivered, c.Node(2).Delivered
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("deliveries: node1=%d node2=%d", len(a), len(b))
	}
	for i := range a {
		if a[i].Seq != b[i].Seq || string(a[i].Payload) != string(b[i].Payload) {
			t.Fatalf("order mismatch at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestRestartNeverReusesRingID(t *testing.T) {
	// The restart carries the pre-crash MaxEpoch into the new stack, so a
	// reborn node cannot mint a RingID its former incarnation already used
	// — RingID reuse would let a checker (or a peer) conflate two distinct
	// sequence spaces.
	c := mustCluster(t, baseConfig(3, 2, proto.ReplicationActive))
	c.Start()
	waitRing(t, c, 3*time.Second)

	var preEpoch uint32
	for _, id := range c.NodeIDs() {
		for _, cc := range c.Node(id).Configs {
			if cc.Ring.Epoch > preEpoch {
				preEpoch = cc.Ring.Epoch
			}
		}
	}
	preConfigs := len(c.Node(3).Configs)

	c.Crash(3)
	c.Run(500 * time.Millisecond)
	if err := c.Restart(3); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	waitRing(t, c, 5*time.Second)

	for _, cc := range c.Node(3).Configs[preConfigs:] {
		if cc.Ring.Epoch <= preEpoch {
			t.Fatalf("post-restart config %+v reuses an epoch at or below pre-crash max %d", cc, preEpoch)
		}
	}
}

func TestRestartRequiresCrash(t *testing.T) {
	c := mustCluster(t, baseConfig(2, 1, proto.ReplicationNone))
	c.Start()
	waitRing(t, c, 3*time.Second)
	if err := c.Restart(1); err == nil {
		t.Fatal("Restart of a live node did not error")
	}
	if err := c.Restart(99); err == nil {
		t.Fatal("Restart of an unknown node did not error")
	}
}

func TestTimerSkewToleratedByRing(t *testing.T) {
	// One node's clock runs 30% slow; the ring still forms and orders
	// traffic (token-loss and retransmit margins absorb the drift).
	c := mustCluster(t, baseConfig(3, 2, proto.ReplicationActive))
	c.SetTimerSkew(2, 1.3)
	c.Start()
	waitRing(t, c, 5*time.Second)
	submitAndDrain(t, c, 10, 5*time.Second)
	assertIdenticalOrder(t, c)
}

func TestSeqRolloverReformsRingInSim(t *testing.T) {
	// End-to-end check of the enforced sequence-space limit: with a tiny
	// SeqRollover the ring must reform mid-traffic (new epoch, sequence
	// numbers reset) without losing ordering or messages.
	ctr := trace.NewCounter()
	cfg := baseConfig(3, 2, proto.ReplicationActive)
	cfg.Trace = ctr
	cfg.TuneSRP = func(id proto.NodeID, sc *stack.Config) {
		sc.SRP.SeqRollover = 4 * uint32(sc.SRP.WindowSize)
	}
	c := mustCluster(t, cfg)
	c.Start()
	waitRing(t, c, 3*time.Second)

	// ~1KB payloads defeat packing, so sequence numbers advance one per
	// message and cross the limit quickly.
	perNode := 150
	for i := 0; i < perNode; i++ {
		for _, id := range c.NodeIDs() {
			payload := make([]byte, 1000)
			copy(payload, fmt.Sprintf("%v/%d", id, i))
			if !c.Submit(id, payload) {
				t.Fatalf("submit rejected for %v #%d", id, i)
			}
		}
		c.Run(2 * time.Millisecond)
	}
	total := perNode * len(c.NodeIDs())
	ok := c.RunUntil(func() bool {
		for _, id := range c.NodeIDs() {
			if len(c.Node(id).Delivered) < total {
				return false
			}
		}
		return true
	}, 10*time.Millisecond, 10*time.Second)
	if !ok {
		for _, id := range c.NodeIDs() {
			t.Logf("node %v delivered %d/%d", id, len(c.Node(id).Delivered), total)
		}
		t.Fatalf("messages lost across the rollover")
	}
	if got := ctr.CodeCount(proto.ProbeSeqRollover); got == 0 {
		t.Fatal("no seq-rollover probe fired despite crossing the limit")
	}
	assertIdenticalOrder(t, c)
}

func TestRestartDeterminism(t *testing.T) {
	// Crash + restart in the middle of traffic must replay byte-for-byte:
	// the incarnation fencing leaves no room for stale-event races.
	run := func() []proto.Delivery {
		c := mustCluster(t, baseConfig(3, 2, proto.ReplicationPassive))
		c.SetLoss(0, 0.02)
		c.Start()
		waitRing(t, c, 3*time.Second)
		for i := 0; i < 10; i++ {
			for _, id := range c.NodeIDs() {
				c.Submit(id, []byte(fmt.Sprintf("%v-%d", id, i)))
			}
		}
		c.Run(100 * time.Millisecond)
		c.Crash(3)
		c.Run(500 * time.Millisecond)
		if err := c.Restart(3); err != nil {
			t.Fatalf("Restart: %v", err)
		}
		c.Run(2 * time.Second)
		return c.Node(1).Delivered
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs diverged: %d vs %d deliveries", len(a), len(b))
	}
	for i := range a {
		if a[i].Seq != b[i].Seq || a[i].Ring != b[i].Ring || string(a[i].Payload) != string(b[i].Payload) {
			t.Fatalf("runs diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestCrashRestartFencesQueuedWork: a packet delivery and a timer queued
// for a node before it crashes never reach its next incarnation, and the
// pooled frame the dropped delivery held is still released once the
// frame's other receiver is done with it.
func TestCrashRestartFencesQueuedWork(t *testing.T) {
	ring := trace.NewRing(1 << 16)
	cfg := baseConfig(2, 1, proto.ReplicationNone)
	cfg.Trace = ring
	c := mustCluster(t, cfg)
	c.Start()
	waitRing(t, c, 3*time.Second)

	n1, n2 := c.Node(1), c.Node(2)
	pkt := &wire.DataPacket{Ring: n2.Stack.SRP().Ring(), Sender: 2, Seq: 1 << 20,
		Chunks: []wire.Chunk{{Flags: wire.ChunkFirst | wire.ChunkLast, Data: make([]byte, 777)}}}
	frame, err := pkt.AppendEncode(wire.GetFrame())
	if err != nil {
		t.Fatal(err)
	}
	size := int64(len(frame))
	ref := c.trackFrame(frame)
	if ref == nil {
		t.Fatal("data frame not tracked")
	}
	// The frame is on its way to both nodes, and node 2 has a timer armed.
	now := c.Sim.Now()
	send := &proto.SendPacket{Network: 0, Dest: proto.BroadcastID, Data: frame}
	n1.recv(evRecv, 0, now+time.Millisecond, send, ref)
	n2.recv(evRecv, 0, now+time.Millisecond, send, ref)
	timer := proto.TimerID{Class: proto.TimerTokenHold, Arg: 99}
	n2.execute(now, []proto.Action{&proto.SetTimer{ID: timer, After: time.Millisecond}})
	if ref.refs != 2 {
		t.Fatalf("frame refs = %d, want 2 scheduled deliveries", ref.refs)
	}

	c.Crash(2)
	if err := c.Restart(2); err != nil {
		t.Fatal(err)
	}
	c.Run(2 * time.Millisecond)

	got := map[proto.NodeID]int{}
	for _, e := range ring.Events(nil) {
		switch {
		case e.At < now: // before the crash
		case e.Kind == trace.PacketReceived && e.C == size:
			got[e.Node]++
		case e.Kind == trace.TimerFired && e.Node == 2 && e.B == 99:
			t.Fatalf("a timer armed before the crash fired in the new incarnation at %v", e.At)
		}
	}
	if got[1] != 1 || got[2] != 0 {
		t.Fatalf("receptions of the frame = %v, want node 1 only", got)
	}
	if ref.refs != 0 || ref.data != nil {
		t.Fatalf("frame not released: refs %d, data held %v", ref.refs, ref.data != nil)
	}
}
