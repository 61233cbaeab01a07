package transport

import (
	"fmt"
	"testing"
	"time"

	"github.com/totem-rrp/totem/internal/proto"
	"github.com/totem-rrp/totem/internal/srp"
	"github.com/totem-rrp/totem/internal/stack"
)

func newRuntimeRing(t *testing.T, n int, style proto.ReplicationStyle, networks int) (*MemHub, []*Runtime) {
	t.Helper()
	hub := NewMemHub(networks)
	var rts []*Runtime
	for i := 1; i <= n; i++ {
		id := proto.NodeID(i)
		tr, err := hub.Join(id)
		if err != nil {
			t.Fatal(err)
		}
		cfg := stack.DefaultConfig(id, networks, style)
		cfg.SRP.IdleTokenHold = 2 * time.Millisecond
		st, err := stack.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rt := NewRuntime(st, tr, 0, NewOutputs())
		rt.Start()
		t.Cleanup(func() {
			rt.Close()
			rt.out.Close()
			tr.Close()
		})
		rts = append(rts, rt)
	}
	return hub, rts
}

func waitOperational(t *testing.T, rts []*Runtime, want int, budget time.Duration) {
	t.Helper()
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		ok := true
		for _, rt := range rts {
			good := false
			rt.Inspect(func(st *stack.Node) {
				good = st.SRP().State() == srp.StateOperational && len(st.SRP().Members()) == want
			})
			if !good {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("runtime ring never became operational")
}

func TestRuntimeRingDelivers(t *testing.T) {
	_, rts := newRuntimeRing(t, 3, proto.ReplicationActive, 2)
	waitOperational(t, rts, 3, 15*time.Second)
	if !rts[0].Submit([]byte("ping")) {
		t.Fatal("submit rejected")
	}
	for i, rt := range rts {
		select {
		case d := <-rt.out.Deliveries.Out():
			if string(d.Payload) != "ping" {
				t.Fatalf("node %d got %q", i+1, d.Payload)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("node %d never delivered", i+1)
		}
	}
}

func TestRuntimeSlowConsumerDoesNotStallRing(t *testing.T) {
	// Nobody reads node 2's delivery channel while hundreds of messages
	// flow: the unbounded queue must absorb them and the ring must stay
	// alive (no token loss, no membership change).
	_, rts := newRuntimeRing(t, 3, proto.ReplicationPassive, 2)
	waitOperational(t, rts, 3, 15*time.Second)
	const n = 500
	sent := 0
	for sent < n {
		if rts[0].Submit(make([]byte, 64)) {
			sent++
		} else {
			time.Sleep(time.Millisecond)
		}
	}
	// Now drain node 2 late; everything must be there.
	got := 0
	deadline := time.After(20 * time.Second)
	for got < n {
		select {
		case <-rts[1].out.Deliveries.Out():
			got++
		case <-deadline:
			t.Fatalf("drained only %d/%d after the fact", got, n)
		}
	}
	// Membership must not have churned.
	rts[1].Inspect(func(st *stack.Node) {
		if v, _ := st.Metrics().Get("srp.token_losses"); v != 0 {
			t.Errorf("token losses while consumer was slow: %d", v)
		}
	})
}

func TestRuntimeSubmitAfterCloseReturnsFalse(t *testing.T) {
	_, rts := newRuntimeRing(t, 1, proto.ReplicationNone, 1)
	rts[0].Close()
	if rts[0].Submit([]byte("x")) {
		t.Fatal("submit accepted after close")
	}
	if rts[0].Inspect(func(*stack.Node) {}) {
		t.Fatal("inspect succeeded after close")
	}
}

func TestRuntimeCloseIsIdempotentAndClosesStreams(t *testing.T) {
	_, rts := newRuntimeRing(t, 1, proto.ReplicationNone, 1)
	rts[0].Close()
	rts[0].Close()
	// The runtime leaves the streams to their owner; closing the Outputs
	// (twice, like the runtime) closes every channel.
	out := rts[0].out
	out.Close()
	out.Close()
	for name, ch := range map[string]func() bool{
		"deliveries": func() bool { return closes(out.Deliveries.Out()) },
		"faults":     func() bool { return closes(out.Faults.Out()) },
		"cleared":    func() bool { return closes(out.Cleared.Out()) },
		"configs":    func() bool { return closes(out.Configs.Out()) },
		"bulk":       func() bool { return closes(out.Bulk.Out()) },
	} {
		if !ch() {
			t.Fatalf("%s channel still open after close", name)
		}
	}
}

// closes reports whether ch closes within a second. The singleton ring
// has queued a configuration change and a bulk notice, and the pump may
// still hand over the one entry it holds.
func closes[T any](ch <-chan T) bool {
	timeout := time.After(time.Second)
	for {
		select {
		case _, ok := <-ch:
			if !ok {
				return true
			}
		case <-timeout:
			return false
		}
	}
}

func TestRuntimeInspectIsSerialisedWithEvents(t *testing.T) {
	_, rts := newRuntimeRing(t, 2, proto.ReplicationNone, 1)
	waitOperational(t, rts, 2, 15*time.Second)
	// Hammer Inspect concurrently with submissions; the race detector
	// validates serialisation.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			rts[0].Submit([]byte(fmt.Sprintf("m%d", i)))
		}
	}()
	for i := 0; i < 100; i++ {
		rts[0].Inspect(func(st *stack.Node) {
			_ = st.SRP().Members()
			_ = st.Replicator().Faulty()
		})
	}
	<-done
}

func TestQueueUnboundedFIFO(t *testing.T) {
	q := NewQueue[int]()
	defer q.Close()
	const n = 10000
	for i := 0; i < n; i++ {
		q.Push(i)
	}
	for i := 0; i < n; i++ {
		select {
		case v := <-q.out:
			if v != i {
				t.Fatalf("out of order: got %d want %d", v, i)
			}
		case <-time.After(time.Second):
			t.Fatalf("queue stalled at %d", i)
		}
	}
}

func TestQueueCloseUnblocksConsumer(t *testing.T) {
	q := NewQueue[int]()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range q.out {
		}
	}()
	q.Push(1)
	time.Sleep(10 * time.Millisecond)
	q.Close()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("consumer not unblocked by close")
	}
}
