package transport

import (
	"testing"

	"github.com/totem-rrp/totem/internal/proto"
	"github.com/totem-rrp/totem/internal/stack"
)

// flushRecorder is a fake batching transport that records the order of
// Send and Flush calls, pinning the Runtime↔BatchSender contract without
// sockets.
type flushRecorder struct {
	events []string
	rx     chan Packet
}

func (f *flushRecorder) Networks() int { return 2 }
func (f *flushRecorder) Send(network int, dest proto.NodeID, data []byte) error {
	f.events = append(f.events, "send")
	return nil
}
func (f *flushRecorder) Packets() <-chan Packet { return f.rx }
func (f *flushRecorder) Close() error           { return nil }
func (f *flushRecorder) Flush()                 { f.events = append(f.events, "flush") }

// TestRuntimeFlushesBatchingTransport pins the runtime's flush hook: an
// action batch that sent anything ends with exactly one Flush, after the
// last send; a batch that sent nothing must not flush (flushing on every
// batch would put timer-only wakeups into the kernel for nothing).
func TestRuntimeFlushesBatchingTransport(t *testing.T) {
	st, err := stack.New(stack.DefaultConfig(1, 2, proto.ReplicationActive))
	if err != nil {
		t.Fatal(err)
	}
	fake := &flushRecorder{rx: make(chan Packet)}
	r := NewRuntime(st, fake, 0, Outputs{})
	if r.flush == nil {
		t.Fatal("runtime did not detect the BatchSender transport")
	}

	// Never Start the loop: execute is driven directly, so the recorder
	// needs no locking.
	r.execute([]proto.Action{
		&proto.SendPacket{Network: 0, Dest: proto.BroadcastID, Data: []byte("a")},
		&proto.SendPacket{Network: 0, Dest: 2, Data: []byte("b")},
	})
	want := []string{"send", "send", "flush"}
	if len(fake.events) != len(want) {
		t.Fatalf("events = %v, want %v", fake.events, want)
	}
	for i, e := range fake.events {
		if e != want[i] {
			t.Fatalf("events = %v, want %v", fake.events, want)
		}
	}

	fake.events = fake.events[:0]
	r.execute(nil)
	r.execute([]proto.Action{&proto.CancelTimer{ID: proto.TimerID{}}})
	if len(fake.events) != 0 {
		t.Fatalf("sendless batches flushed: %v", fake.events)
	}
}

// TestRuntimeNonBatchingTransportNoHook pins that a plain Transport (the
// in-process hub) leaves the hook nil — the portable path pays nothing.
func TestRuntimeNonBatchingTransportNoHook(t *testing.T) {
	st, err := stack.New(stack.DefaultConfig(1, 2, proto.ReplicationActive))
	if err != nil {
		t.Fatal(err)
	}
	hub := NewMemHub(2)
	tr, err := hub.Join(1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if r := NewRuntime(st, tr, 0, Outputs{}); r.flush != nil {
		t.Fatal("mem transport unexpectedly detected as BatchSender")
	}
}
