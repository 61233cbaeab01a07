package srp

import (
	"testing"

	"github.com/totem-rrp/totem/internal/proto"
	"github.com/totem-rrp/totem/internal/wire"
)

// gatherMachine puts a machine into Gather with the given candidate set,
// as if joins had been merged.
func gatherMachine(t *testing.T, id proto.NodeID, procs ...proto.NodeID) (*Machine, *fakeOut, *proto.Actions) {
	t.Helper()
	out := &fakeOut{}
	acts := &proto.Actions{}
	m, err := NewMachine(DefaultConfig(id), out, acts)
	if err != nil {
		t.Fatal(err)
	}
	m.state = StateGather
	m.procSet = newNodeSet(procs...)
	m.joinsSeen = map[proto.NodeID]bool{id: true}
	m.consensus = map[proto.NodeID]bool{id: true}
	return m, out, acts
}

func TestConsensusCreatesCommitAtRepresentative(t *testing.T) {
	m, out, _ := gatherMachine(t, 1, 1, 2, 3)
	for _, p := range []proto.NodeID{2, 3} {
		m.consensus[p] = true
	}
	m.checkConsensus(0, false)
	if m.state != StateCommit || m.commitPhase != 1 {
		t.Fatalf("state=%v phase=%d", m.state, m.commitPhase)
	}
	if len(out.unicasts) != 1 || out.unicasts[0].dest != 2 {
		t.Fatalf("commit token sent to %v, want successor 2", out.unicasts)
	}
	c, err := wire.DecodeCommit(out.unicasts[0].data)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Members) != 3 || c.Members[0].Visits != 1 {
		t.Fatalf("commit token %+v", c)
	}
	if c.Ring.Rep != 1 || c.Ring.Epoch == 0 {
		t.Fatalf("ring id %v", c.Ring)
	}
}

func TestConsensusMemberWaitsForCommit(t *testing.T) {
	m, out, acts := gatherMachine(t, 2, 1, 2, 3)
	for _, p := range []proto.NodeID{1, 3} {
		m.consensus[p] = true
	}
	m.checkConsensus(0, false)
	if m.state != StateCommit || !m.commitWaiting {
		t.Fatalf("state=%v waiting=%v", m.state, m.commitWaiting)
	}
	if len(out.unicasts) != 0 {
		t.Fatal("non-representative sent a commit token")
	}
	// A wait timer must be armed.
	armed := false
	for _, a := range acts.Drain() {
		if st, ok := a.(*proto.SetTimer); ok && st.ID.Class == proto.TimerCommitRetransmit {
			armed = true
		}
	}
	if !armed {
		t.Fatal("commit wait timer not armed")
	}
}

func TestCommitWaitTimeoutFailsRepresentative(t *testing.T) {
	m, _, _ := gatherMachine(t, 2, 1, 2, 3)
	for _, p := range []proto.NodeID{1, 3} {
		m.consensus[p] = true
	}
	m.checkConsensus(0, false)
	if !m.commitWaiting {
		t.Fatal("setup: not waiting")
	}
	m.onCommitTimeout(0)
	if m.state != StateGather {
		t.Fatalf("state=%v, want gather after silent representative", m.state)
	}
	if !m.failSet.contains(1) {
		t.Fatalf("failSet=%v, want representative 1 failed", m.failSet)
	}
}

func TestCommitRetransmitExhaustionFailsSuccessor(t *testing.T) {
	m, out, _ := gatherMachine(t, 1, 1, 2, 3)
	for _, p := range []proto.NodeID{2, 3} {
		m.consensus[p] = true
	}
	m.checkConsensus(0, false) // rep sends the commit token to node 2
	sentBefore := len(out.unicasts)
	for i := 0; i < commitRetransmitLimit-1; i++ {
		m.onCommitTimeout(0)
	}
	if got := len(out.unicasts) - sentBefore; got != commitRetransmitLimit-1 {
		t.Fatalf("retransmits = %d, want %d", got, commitRetransmitLimit-1)
	}
	// The final timeout gives up and fails the successor.
	m.onCommitTimeout(0)
	if m.state != StateGather {
		t.Fatalf("state=%v", m.state)
	}
	if !m.failSet.contains(2) {
		t.Fatalf("failSet=%v, want successor 2 failed", m.failSet)
	}
}

func TestCommitTokenFirstPassFillsEntry(t *testing.T) {
	m, out, _ := gatherMachine(t, 2, 1, 2, 3)
	// Simulate an old ring so the entry carries recovery state.
	m.old = &oldRing{
		ring: proto.RingID{Rep: 1, Epoch: 4},
		aru:  7, high: 9,
		asm: wire.NewAssembler(),
	}
	c := &wire.CommitToken{
		Ring: proto.RingID{Rep: 1, Epoch: 10},
		Members: []wire.CommitEntry{
			{ID: 1, Visits: 1}, {ID: 2}, {ID: 3},
		},
	}
	m.onCommit(0, c)
	if m.state != StateCommit || m.commitPhase != 1 {
		t.Fatalf("state=%v phase=%d", m.state, m.commitPhase)
	}
	if len(out.unicasts) != 1 || out.unicasts[0].dest != 3 {
		t.Fatalf("forwarded to %v, want 3", out.unicasts)
	}
	fwd, err := wire.DecodeCommit(out.unicasts[0].data)
	if err != nil {
		t.Fatal(err)
	}
	e := fwd.Members[1]
	if e.Visits != 1 || e.MyAru != 7 || e.HighSeq != 9 || e.OldRing.Epoch != 4 {
		t.Fatalf("entry not filled: %+v", e)
	}
}

func TestCommitTokenSecondPassEntersRecovery(t *testing.T) {
	m, out, _ := gatherMachine(t, 2, 1, 2, 3)
	c := &wire.CommitToken{
		Ring: proto.RingID{Rep: 1, Epoch: 10},
		Members: []wire.CommitEntry{
			{ID: 1, Visits: 2}, {ID: 2, Visits: 1}, {ID: 3, Visits: 1},
		},
	}
	m.pendingCommit = c
	m.commitPhase = 1
	m.state = StateCommit
	m.onCommit(0, c)
	if m.state != StateRecovery || m.commitPhase != 2 {
		t.Fatalf("state=%v phase=%d", m.state, m.commitPhase)
	}
	if m.ring != c.Ring || len(m.members) != 3 {
		t.Fatalf("ring=%v members=%v", m.ring, m.members)
	}
	if len(out.unicasts) != 1 {
		t.Fatal("second pass not forwarded")
	}
}

func TestCommitTokenDuplicateIgnored(t *testing.T) {
	m, out, _ := gatherMachine(t, 2, 1, 2, 3)
	c := &wire.CommitToken{
		Ring: proto.RingID{Rep: 1, Epoch: 10},
		Members: []wire.CommitEntry{
			{ID: 1, Visits: 1}, {ID: 2}, {ID: 3},
		},
	}
	m.onCommit(0, c)
	sent := len(out.unicasts)
	// The same first-pass copy arrives via the second network.
	dup := &wire.CommitToken{
		Ring: proto.RingID{Rep: 1, Epoch: 10},
		Members: []wire.CommitEntry{
			{ID: 1, Visits: 1}, {ID: 2}, {ID: 3},
		},
	}
	m.onCommit(0, dup)
	if len(out.unicasts) != sent {
		t.Fatal("duplicate commit copy re-forwarded")
	}
}

func TestCommitTokenThirdArrivalEmitsFirstRingToken(t *testing.T) {
	m, out, _ := gatherMachine(t, 1, 1, 2)
	// Rep has already run both passes.
	c := &wire.CommitToken{
		Ring:    proto.RingID{Rep: 1, Epoch: 10},
		Members: []wire.CommitEntry{{ID: 1, Visits: 2}, {ID: 2, Visits: 2}},
	}
	m.pendingCommit = c
	m.commitPhase = 2
	m.state = StateRecovery
	m.ring = c.Ring
	m.members = newNodeSet(1, 2)
	m.onCommit(0, c)
	if m.commitPhase != 3 {
		t.Fatalf("phase=%d", m.commitPhase)
	}
	last := out.unicasts[len(out.unicasts)-1]
	tok, err := wire.DecodeToken(last.data)
	if err != nil {
		t.Fatalf("last send is not the ring token: %v", err)
	}
	if tok.Ring != c.Ring || tok.Seq != 0 || last.dest != 2 {
		t.Fatalf("first token %+v to %v", tok, last.dest)
	}
}

func TestCommitTokenForeignMembershipIgnored(t *testing.T) {
	m, out, _ := gatherMachine(t, 5, 5, 6)
	c := &wire.CommitToken{
		Ring:    proto.RingID{Rep: 1, Epoch: 10},
		Members: []wire.CommitEntry{{ID: 1, Visits: 1}, {ID: 2}},
	}
	m.onCommit(0, c)
	if m.state != StateGather || len(out.unicasts) != 0 {
		t.Fatal("commit token for a ring we are not in was processed")
	}
}
