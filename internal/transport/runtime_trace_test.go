package transport

import (
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/totem-rrp/totem/internal/proto"
	"github.com/totem-rrp/totem/internal/stack"
	"github.com/totem-rrp/totem/internal/trace"
)

// newTracedRing builds a runtime ring with a per-node tracer installed
// before Start (the SetTracer contract).
func newTracedRing(t *testing.T, n, networks int, tracers []trace.Tracer) []*Runtime {
	t.Helper()
	hub := NewMemHub(networks)
	var rts []*Runtime
	for i := 1; i <= n; i++ {
		id := proto.NodeID(i)
		tr, err := hub.Join(id)
		if err != nil {
			t.Fatal(err)
		}
		cfg := stack.DefaultConfig(id, networks, proto.ReplicationActive)
		cfg.SRP.IdleTokenHold = 2 * time.Millisecond
		st, err := stack.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rt := NewRuntime(st, tr, 0, NewOutputs())
		if tracers[i-1] != nil {
			rt.SetTracer(tracers[i-1])
		}
		rt.Start()
		t.Cleanup(func() {
			rt.Close()
			rt.out.Close()
			tr.Close()
		})
		rts = append(rts, rt)
	}
	return rts
}

// TestRuntimeTraceConcurrentDump exercises the live-debug path under the
// race detector: the protocol loop records into the ring at full rate
// while concurrent readers dump and snapshot it, exactly what the /trace
// endpoint does against a running node.
func TestRuntimeTraceConcurrentDump(t *testing.T) {
	ring := trace.NewRing(512)
	counter := trace.NewCounter()
	rts := newTracedRing(t, 3, 2, []trace.Tracer{trace.Multi{ring, counter}, nil, nil})
	waitOperational(t, rts, 3, 15*time.Second)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []trace.Event
			for {
				select {
				case <-stop:
					return
				default:
				}
				var sb strings.Builder
				if err := ring.Dump(&sb); err != nil {
					t.Error(err)
					return
				}
				buf = ring.Events(buf[:0])
			}
		}()
	}
	for i := 0; i < 50; i++ {
		if !rts[0].Submit([]byte("traced payload")) {
			time.Sleep(time.Millisecond)
		}
	}
	deadline := time.After(10 * time.Second)
	for delivered := 0; delivered < 1; {
		select {
		case <-rts[0].out.Deliveries.Out():
			delivered++
		case <-deadline:
			t.Fatal("no delivery while tracing")
		}
	}
	close(stop)
	wg.Wait()

	if counter.Count(trace.PacketSent) == 0 || counter.Count(trace.PacketReceived) == 0 {
		t.Fatal("runtime recorded no packet events")
	}
	if counter.Count(trace.TimerFired) == 0 {
		t.Fatal("runtime recorded no timer events")
	}
	if counter.Count(trace.Delivered) == 0 {
		t.Fatal("runtime recorded no delivery events")
	}
	if counter.Count(trace.Machine) == 0 {
		t.Fatal("stack probes never reached the runtime tracer")
	}
	if counter.CodeCount(proto.ProbePhase) == 0 {
		t.Fatal("no membership phase transitions in the runtime trace")
	}
	if ring.Len() == 0 {
		t.Fatal("ring tracer retained nothing")
	}
}

// TestRuntimeNoTracerNoEvents pins the zero-cost contract at the runtime
// level: without SetTracer the stack's probe hook stays nil and nothing
// is recorded anywhere.
func TestRuntimeNoTracerNoEvents(t *testing.T) {
	rts := newTracedRing(t, 2, 2, []trace.Tracer{nil, nil})
	waitOperational(t, rts, 2, 15*time.Second)
	if !rts[0].Submit([]byte("untraced")) {
		t.Fatal("submit rejected")
	}
	// Wait for the delivery on every node: agreed order guarantees both
	// deliver, but the sender's own delivery can trail the receiver's.
	for _, rt := range rts {
		select {
		case <-rt.out.Deliveries.Out():
		case <-time.After(10 * time.Second):
			t.Fatal("no delivery")
		}
	}
	for _, rt := range rts {
		if rt.tracer != nil {
			t.Fatal("tracer unexpectedly set")
		}
		rt.Inspect(func(st *stack.Node) {
			// The registry still works without a tracer; the trace path is
			// what must stay disabled.
			if v, ok := st.Metrics().Get("srp.msgs_delivered"); !ok || v == 0 {
				t.Errorf("metrics not live without tracer: %d %v", v, ok)
			}
		})
	}
}
