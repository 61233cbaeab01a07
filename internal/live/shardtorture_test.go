package live

import (
	"sync/atomic"
	"testing"
	"time"

	"github.com/totem-rrp/totem/internal/proto"
	"github.com/totem-rrp/totem/internal/transport"
	"github.com/totem-rrp/totem/internal/wire"
)

// TestShardTortureMem is the live multi-ring conformance smoke: a seeded
// per-shard fault program over the mem transport must finish with zero
// invariant violations, and faulting one shard must not stall the rest.
func TestShardTortureMem(t *testing.T) {
	if testing.Short() {
		t.Skip("live shard torture in -short mode")
	}
	res, err := ShardTorture(ShardTortureOptions{
		Nodes:        3,
		Networks:     2,
		Shards:       4,
		Seed:         11,
		FaultWindows: 2,
		Window:       250 * time.Millisecond,
		Heal:         150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	if res.Delivered == 0 {
		t.Fatal("no deliveries")
	}
}

// countingTransport counts sends and discards them.
type countingTransport struct {
	networks int
	n        atomic.Int64
	rx       chan transport.Packet
}

func newCountingTransport(networks int) *countingTransport {
	return &countingTransport{networks: networks, rx: make(chan transport.Packet)}
}

func (c *countingTransport) Networks() int { return c.networks }
func (c *countingTransport) Send(network int, dest proto.NodeID, data []byte) error {
	c.n.Add(1)
	return nil
}
func (c *countingTransport) Packets() <-chan transport.Packet { return c.rx }
func (c *countingTransport) Close() error                     { close(c.rx); return nil }
func (c *countingTransport) sent() int64                      { return c.n.Load() }

func encodeTestToken(t *testing.T) []byte {
	t.Helper()
	tok := &wire.Token{Ring: proto.RingID{Rep: 1, Epoch: 1}, Seq: 1}
	frame, err := tok.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestNetemShardFaults covers the shard fault judgments in isolation.
func TestNetemShardFaults(t *testing.T) {
	nm := NewNetem(2, NetemParams{Seed: 1})
	if nm.shardFaultsActive() {
		t.Fatal("fresh netem reports active shard faults")
	}
	nm.BlockShard(2, 3, true)
	if !nm.shardFaultsActive() {
		t.Fatal("BlockShard did not arm the shard fault path")
	}
	if !nm.dropShardSend(2, 3) || !nm.dropShardRecv(2, 3) {
		t.Fatal("node 2 shard 3 must be dark in both directions")
	}
	if nm.dropShardSend(2, 1) || nm.dropShardSend(1, 3) || nm.dropShardRecv(1, 3) {
		t.Fatal("block leaked to another shard or node")
	}
	nm.BlockShard(2, 3, false)
	if nm.shardFaultsActive() {
		t.Fatal("unblock did not disarm")
	}

	nm.SetShardLoss(1, 1.0)
	if !nm.dropShardSend(1, 1) {
		t.Fatal("full shard loss must drop")
	}
	if nm.dropShardRecv(1, 1) {
		t.Fatal("shard loss is send-side only")
	}
	nm.HealAll()
	if nm.shardFaultsActive() {
		t.Fatal("HealAll did not clear shard faults")
	}
}

// TestImpairedPeeksShardTags: an Impaired wrapper drops exactly the
// blocked shard's tagged frames.
func TestImpairedPeeksShardTags(t *testing.T) {
	nm := NewNetem(1, NetemParams{Seed: 7})
	inner := newCountingTransport(1)
	imp := Impair(inner, 1, []proto.NodeID{2}, nm)
	defer imp.Close()

	frame := encodeTestToken(t)
	nm.BlockShard(1, 2, true)
	tagged2 := wire.WrapShard(2, frame)
	tagged1 := wire.WrapShard(1, frame)
	imp.Send(0, proto.BroadcastID, tagged2)
	imp.Send(0, proto.BroadcastID, tagged1)
	imp.Send(0, proto.BroadcastID, frame) // untagged = shard 0
	if got := inner.sent(); got != 2 {
		t.Fatalf("inner transport saw %d sends, want 2 (shard 2 blocked)", got)
	}
}
