package proto

import (
	"math/rand"
	"strings"
	"testing"
	"time"
)

func TestNodeIDString(t *testing.T) {
	if got := NodeID(42).String(); got != "n42" {
		t.Fatalf("String = %q", got)
	}
}

func TestRingIDString(t *testing.T) {
	r := RingID{Rep: 3, Epoch: 7}
	if got := r.String(); got != "ring(n3,7)" {
		t.Fatalf("String = %q", got)
	}
}

func TestRingIDLess(t *testing.T) {
	cases := []struct {
		a, b RingID
		want bool
	}{
		{RingID{Rep: 1, Epoch: 1}, RingID{Rep: 1, Epoch: 2}, true},
		{RingID{Rep: 1, Epoch: 2}, RingID{Rep: 1, Epoch: 1}, false},
		{RingID{Rep: 1, Epoch: 5}, RingID{Rep: 2, Epoch: 5}, true},
		{RingID{Rep: 2, Epoch: 5}, RingID{Rep: 1, Epoch: 5}, false},
		{RingID{Rep: 1, Epoch: 1}, RingID{Rep: 1, Epoch: 1}, false},
	}
	for _, tc := range cases {
		if got := tc.a.Less(tc.b); got != tc.want {
			t.Errorf("%v.Less(%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestReplicationStyleString(t *testing.T) {
	cases := map[ReplicationStyle]string{
		ReplicationNone:          "none",
		ReplicationActive:        "active",
		ReplicationPassive:       "passive",
		ReplicationActivePassive: "active-passive",
		ReplicationStyle(99):     "ReplicationStyle(99)",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(s), got, want)
		}
	}
}

func TestReplicationStyleValid(t *testing.T) {
	for _, s := range []ReplicationStyle{ReplicationNone, ReplicationActive, ReplicationPassive, ReplicationActivePassive} {
		if !s.Valid() {
			t.Errorf("%v not valid", s)
		}
	}
	for _, s := range []ReplicationStyle{0, 5, -1} {
		if s.Valid() {
			t.Errorf("%d wrongly valid", int(s))
		}
	}
}

func TestTimerClassStrings(t *testing.T) {
	classes := []TimerClass{
		TimerTokenLoss, TimerTokenRetransmit, TimerJoin, TimerConsensus,
		TimerCommitRetransmit, TimerMergeDetect, TimerTokenHold,
		TimerRRPToken, TimerRRPDecay,
	}
	seen := map[string]bool{}
	for _, c := range classes {
		s := c.String()
		if s == "" || seen[s] {
			t.Errorf("class %d has empty or duplicate string %q", uint8(c), s)
		}
		seen[s] = true
	}
	if got := TimerClass(200).String(); got != "TimerClass(200)" {
		t.Fatalf("unknown class String = %q", got)
	}
}

func TestTimerIDString(t *testing.T) {
	if got := (TimerID{Class: TimerJoin}).String(); got != "join" {
		t.Fatalf("String = %q", got)
	}
	if got := (TimerID{Class: TimerJoin, Arg: 3}).String(); got != "join/3" {
		t.Fatalf("String = %q", got)
	}
}

func TestTimerIDIsRRP(t *testing.T) {
	if (TimerID{Class: TimerTokenLoss}).IsRRP() {
		t.Fatal("SRP timer classified as RRP")
	}
	if !(TimerID{Class: TimerRRPToken}).IsRRP() {
		t.Fatal("RRP token timer not classified as RRP")
	}
	if !(TimerID{Class: TimerRRPDecay}).IsRRP() {
		t.Fatal("RRP decay timer not classified as RRP")
	}
}

func TestActionsBufferAccumulatesAndDrains(t *testing.T) {
	var a Actions
	a.Send(1, 2, []byte("x"))
	a.SetTimer(TimerID{Class: TimerJoin}, time.Second)
	a.CancelTimer(TimerID{Class: TimerJoin})
	a.Deliver(Delivery{Sender: 1, Seq: 2})
	a.Fault(FaultReport{Network: 1})
	a.Config(ConfigChange{})
	a.Append(&SendPacket{Network: 0})
	if a.Len() != 7 {
		t.Fatalf("Len = %d", a.Len())
	}
	got := a.Drain()
	if len(got) != 7 {
		t.Fatalf("Drain returned %d actions", len(got))
	}
	if a.Len() != 0 || len(a.Drain()) != 0 {
		t.Fatal("buffer not reset after drain")
	}
	// Types in emission order.
	if _, ok := got[0].(*SendPacket); !ok {
		t.Fatalf("action 0 is %T", got[0])
	}
	if st, ok := got[1].(*SetTimer); !ok || st.After != time.Second {
		t.Fatalf("action 1 is %#v", got[1])
	}
	if _, ok := got[2].(*CancelTimer); !ok {
		t.Fatalf("action 2 is %T", got[2])
	}
	if d, ok := got[3].(*Deliver); !ok || d.Msg.Seq != 2 {
		t.Fatalf("action 3 is %#v", got[3])
	}
	if _, ok := got[4].(Fault); !ok {
		t.Fatalf("action 4 is %T", got[4])
	}
	if _, ok := got[5].(Config); !ok {
		t.Fatalf("action 5 is %T", got[5])
	}
}

func TestActionsRecycleReusesBackingArray(t *testing.T) {
	var a Actions
	a.Send(0, 1, []byte("x"))
	a.Send(1, 1, []byte("x"))
	batch := a.Drain()
	a.Recycle(batch)
	// The recycled array must be cleared so it pins no buffers.
	if batch[:cap(batch)][0] != nil {
		t.Fatal("recycled batch not cleared")
	}
	a.Send(0, 2, []byte("y"))
	next := a.Drain()
	if &next[0] != &batch[0] {
		t.Fatal("emission after recycle should reuse the returned array")
	}
	if sp, ok := next[0].(*SendPacket); !ok || sp.Dest != 2 {
		t.Fatalf("recycled batch carries wrong action: %#v", next[0])
	}
}

// TestActionsDeliverRecycleAllocs: deliveries are pooled like sends, so a
// steady stream of Deliver + Recycle allocates nothing, and a recycled
// *Deliver pins no payload.
func TestActionsDeliverRecycleAllocs(t *testing.T) {
	var a Actions
	payload := []byte("payload")
	var last *Deliver
	allocs := testing.AllocsPerRun(100, func() {
		for seq := uint32(1); seq <= 4; seq++ {
			a.Deliver(Delivery{Sender: 1, Seq: seq, Payload: payload})
		}
		batch := a.Drain()
		last = batch[3].(*Deliver)
		if last.Msg.Seq != 4 {
			t.Fatalf("delivery seq %d, want 4", last.Msg.Seq)
		}
		a.Recycle(batch)
	})
	if allocs != 0 {
		t.Fatalf("Deliver + Recycle: %v allocs, want 0", allocs)
	}
	if last.Msg.Payload != nil || last.Msg.Seq != 0 {
		t.Fatalf("recycled Deliver still holds %+v", last.Msg)
	}
}

// TestActionsBatchesNilBeyondLength pins the invariant Recycle's
// length-only clear rests on: no drained batch ever holds a non-nil
// element past its length, whatever mix of batch sizes (shrinking after a
// large one, growing past a recycled array's capacity) the machines emit.
func TestActionsBatchesNilBeyondLength(t *testing.T) {
	var a Actions
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 2000; round++ {
		n := rng.Intn(40)
		if rng.Intn(10) == 0 {
			n = 200 + rng.Intn(200) // an occasional burst grows the array
		}
		for i := 0; i < n; i++ {
			switch i % 4 {
			case 0:
				a.Send(i%2, BroadcastID, []byte{1})
			case 1:
				a.SetTimer(TimerID{Class: TimerJoin}, time.Second)
			case 2:
				a.CancelTimer(TimerID{Class: TimerJoin})
			default:
				a.Deliver(Delivery{Seq: uint32(i)})
			}
		}
		batch := a.Drain()
		for i, act := range batch[len(batch):cap(batch)] {
			if act != nil {
				t.Fatalf("round %d: element %d past the length %d is %#v", round, len(batch)+i, len(batch), act)
			}
		}
		a.Recycle(batch)
	}
}

func TestActionsRecycleToleratesEmptyBatch(t *testing.T) {
	var a Actions
	a.Recycle(nil)
	a.Recycle(a.Drain())
	a.Send(0, 1, nil)
	if a.Len() != 1 {
		t.Fatalf("Len = %d", a.Len())
	}
}

func TestFaultReportString(t *testing.T) {
	f := FaultReport{Network: 1, Reason: "dead", Time: time.Second}
	s := f.String()
	for _, want := range []string{"network 1", "dead", "1s"} {
		if !strings.Contains(s, want) {
			t.Errorf("FaultReport.String() = %q missing %q", s, want)
		}
	}
}

func TestConfigChangeString(t *testing.T) {
	c := ConfigChange{Ring: RingID{Rep: 1, Epoch: 2}, Members: []NodeID{1, 2}, Transitional: true}
	if !strings.Contains(c.String(), "transitional") {
		t.Fatalf("String = %q", c.String())
	}
	c.Transitional = false
	if !strings.Contains(c.String(), "regular") {
		t.Fatalf("String = %q", c.String())
	}
}
