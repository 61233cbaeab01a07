package srp

import (
	"testing"

	"github.com/totem-rrp/totem/internal/proto"
	"github.com/totem-rrp/totem/internal/wire"
)

// recoveringMachine builds a machine that was operational on oldRing with
// the given received packets, then snapshots it as if entering gather.
func recoveringMachine(t *testing.T, id proto.NodeID, seqs ...uint32) *Machine {
	t.Helper()
	m, _, _ := operationalMachine(t, id)
	for _, s := range seqs {
		m.rx.put(s, mkData(m, 1, s, "old"))
	}
	for m.rx.get(m.myAru+1) != nil {
		m.myAru++
	}
	for _, s := range seqs {
		if s > m.highSeq {
			m.highSeq = s
		}
	}
	m.snapshotOld()
	m.state = StateGather
	m.procSet = newNodeSet(1, 2, 3)
	return m
}

// commitFor builds a commit token whose members all report the same old
// ring with the given per-member (aru, high).
func commitFor(m *Machine, entries map[proto.NodeID][2]uint32) *wire.CommitToken {
	c := &wire.CommitToken{Ring: proto.RingID{Rep: 1, Epoch: 10}}
	for _, id := range []proto.NodeID{1, 2, 3} {
		e, ok := entries[id]
		if !ok {
			continue
		}
		c.Members = append(c.Members, wire.CommitEntry{
			ID: id, OldRing: m.old.ring, MyAru: e[0], HighSeq: e[1],
		})
	}
	return c
}

func TestBeginRecoveryResponsibilityRule(t *testing.T) {
	// Node 2 holds old packets 1..6; group arus: n1=2, n2=4, n3=3.
	// lowAru=2, high=6.
	//  seq 3: holders by aru = {n2 (aru4), n3 (aru3)} → lowest ID holder
	//         with aru>=3 is n2 → n2 responsible. ✓ queued.
	//  seq 4: holders = {n2} → n2 responsible. ✓ queued.
	//  seq 5,6: beyond every aru → every holder requeues. n2 has them. ✓
	m := recoveringMachine(t, 2, 1, 2, 3, 4, 5, 6)
	c := commitFor(m, map[proto.NodeID][2]uint32{
		1: {2, 6}, 2: {4, 6}, 3: {3, 5},
	})
	m.beginRecovery(0, c)
	if m.state != StateRecovery {
		t.Fatalf("state = %v", m.state)
	}
	var seqs []uint32
	for _, data := range m.recQueue {
		pkt, err := wire.DecodeData(data)
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, pkt.Seq)
	}
	want := []uint32{3, 4, 5, 6}
	if len(seqs) != len(want) {
		t.Fatalf("recQueue seqs = %v, want %v", seqs, want)
	}
	for i := range want {
		if seqs[i] != want[i] {
			t.Fatalf("recQueue seqs = %v, want %v", seqs, want)
		}
	}
}

func TestBeginRecoveryNotResponsibleWhenLowerIDHolds(t *testing.T) {
	// Node 3's view: n1 (aru 6) covers everything up to 6, so node 3 has
	// no duty below 7 even though it holds those packets.
	m := recoveringMachine(t, 3, 1, 2, 3, 4, 5, 6)
	c := commitFor(m, map[proto.NodeID][2]uint32{
		1: {6, 6}, 2: {2, 6}, 3: {6, 6},
	})
	m.beginRecovery(0, c)
	if len(m.recQueue) != 0 {
		t.Fatalf("recQueue = %d entries, want none (node 1 is responsible)", len(m.recQueue))
	}
}

func TestBeginRecoveryFreshNodeHasNoDuty(t *testing.T) {
	out := &fakeOut{}
	acts := &proto.Actions{}
	m, err := NewMachine(DefaultConfig(2), out, acts)
	if err != nil {
		t.Fatal(err)
	}
	m.state = StateGather
	m.procSet = newNodeSet(1, 2)
	c := &wire.CommitToken{
		Ring: proto.RingID{Rep: 1, Epoch: 3},
		Members: []wire.CommitEntry{
			{ID: 1, OldRing: proto.RingID{Rep: 1, Epoch: 2}, MyAru: 5, HighSeq: 5},
			{ID: 2}, // fresh: zero old ring
		},
	}
	m.beginRecovery(0, c)
	if len(m.recQueue) != 0 {
		t.Fatal("fresh node queued recovery traffic")
	}
}

func TestUnwrapRecoveryFiltersForeignAndStale(t *testing.T) {
	m := recoveringMachine(t, 2, 1, 2)
	c := commitFor(m, map[proto.NodeID][2]uint32{1: {2, 2}, 2: {2, 2}, 3: {0, 0}})
	m.beginRecovery(0, c)

	oldRing := m.old.ring
	wrap := func(inner *wire.DataPacket) *wire.DataPacket {
		data, err := inner.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return &wire.DataPacket{
			Ring: m.ring, Sender: 3, Seq: 1, Flags: wire.FlagRecovery,
			Chunks: []wire.Chunk{{Flags: wire.ChunkFirst | wire.ChunkLast, Data: data}},
		}
	}

	// A proper old-ring packet fills the buffer.
	good := &wire.DataPacket{Ring: oldRing, Sender: 3, Seq: 5,
		Chunks: []wire.Chunk{{Flags: wire.ChunkFirst | wire.ChunkLast, Data: []byte("good")}}}
	m.unwrapRecovery(wrap(good))
	if m.old.rx.get(5) == nil {
		t.Fatal("old-ring packet not unwrapped")
	}

	// A foreign-ring packet is dropped: EVS delivers a message only to
	// members of the configuration it was sent in.
	foreign := &wire.DataPacket{Ring: proto.RingID{Rep: 9, Epoch: 4}, Sender: 9, Seq: 6,
		Chunks: []wire.Chunk{{Flags: wire.ChunkFirst | wire.ChunkLast, Data: []byte("foreign")}}}
	m.unwrapRecovery(wrap(foreign))
	if m.old.rx.get(6) != nil {
		t.Fatal("foreign-ring packet accepted into old-ring buffer")
	}

	// Garbage inside the encapsulation is dropped, not fatal.
	bad := &wire.DataPacket{
		Ring: m.ring, Sender: 3, Seq: 2, Flags: wire.FlagRecovery,
		Chunks: []wire.Chunk{{Flags: wire.ChunkFirst | wire.ChunkLast, Data: []byte("junk")}},
	}
	m.unwrapRecovery(bad)
}

func TestDeliverOldAndInstallOrdering(t *testing.T) {
	// Completion must deliver: transitional config → remaining old
	// messages (transitional) → regular config.
	m := recoveringMachine(t, 2, 1, 2, 3)
	m.old.deliveredTo = 1 // only seq 1 was delivered pre-failure
	c := commitFor(m, map[proto.NodeID][2]uint32{1: {3, 3}, 2: {3, 3}})
	m.beginRecovery(0, c)
	acts := m.acts
	acts.Drain()
	m.completeRecovery(0)

	var kinds []string
	for _, a := range acts.Drain() {
		switch act := a.(type) {
		case proto.Config:
			if act.Change.Transitional {
				kinds = append(kinds, "transitional-config")
			} else {
				kinds = append(kinds, "regular-config")
			}
		case *proto.Deliver:
			if !act.Msg.Transitional {
				t.Fatalf("old message delivered without transitional mark: %v", act.Msg)
			}
			kinds = append(kinds, "old-msg")
		}
	}
	want := []string{"transitional-config", "old-msg", "old-msg", "regular-config"}
	if len(kinds) != len(want) {
		t.Fatalf("event order = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event order = %v, want %v", kinds, want)
		}
	}
	if m.state != StateOperational || m.old != nil {
		t.Fatalf("state=%v old=%v after completion", m.state, m.old)
	}
}

func TestMergeDetectIgnoredFromOwnRing(t *testing.T) {
	m, _, _ := operationalMachine(t, 2)
	m.onMergeDetect(0, &wire.MergeDetect{Ring: m.ring, Sender: 1})
	if m.state != StateOperational {
		t.Fatal("own-ring advertisement triggered gather")
	}
	m.onMergeDetect(0, &wire.MergeDetect{Ring: proto.RingID{Rep: 9, Epoch: 9}, Sender: 9})
	if m.state != StateGather {
		t.Fatal("foreign advertisement did not trigger gather")
	}
}

func TestSingletonTransitionDeliversOwnMessagesPastGap(t *testing.T) {
	// Node 2 was operational holding a foreign packet at seq 4 and its own
	// packets at 5 and 7; seq 6 (from node 1) was lost before the ring
	// broke, so the agreed prefix ends at the gap below 4. When node 2
	// falls back to a singleton configuration, extended virtual synchrony
	// still owes it its own messages beyond the gap: 5 and 7 must be
	// delivered transitionally, while the foreign 4 is forfeited with the
	// gap (node 1 is not in the transitional configuration).
	m, _, acts := operationalMachine(t, 2)
	m.rx.put(4, mkData(m, 1, 4, "four"))
	m.rx.put(5, mkData(m, 2, 5, "five"))
	m.rx.put(7, mkData(m, 2, 7, "seven"))
	m.highSeq = 7
	m.snapshotOld()
	m.state = StateGather
	m.procSet = newNodeSet(2)
	acts.Drain()

	m.installSingleton(0)

	if m.state != StateOperational || len(m.members) != 1 {
		t.Fatalf("state=%v members=%v, want operational singleton", m.state, m.members)
	}
	got := drainDeliveries(acts)
	if len(got) != 2 {
		t.Fatalf("deliveries = %v, want own messages 5 and 7", got)
	}
	for i, want := range []struct {
		seq     uint32
		payload string
	}{{5, "five"}, {7, "seven"}} {
		d := got[i]
		if d.Seq != want.seq || string(d.Payload) != want.payload || !d.Transitional || d.Sender != 2 {
			t.Fatalf("delivery %d = %+v, want own seq %d %q transitional", i, d, want.seq, want.payload)
		}
	}
}
