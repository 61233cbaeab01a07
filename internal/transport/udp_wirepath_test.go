package transport

import (
	"fmt"
	"testing"
	"time"

	"github.com/totem-rrp/totem/internal/metrics"
	"github.com/totem-rrp/totem/internal/proto"
	"github.com/totem-rrp/totem/internal/wire"
)

// wirePaths returns every driver this platform can run, so parity tests
// pin identical semantics across the portable and batched paths.
func wirePaths() []string {
	paths := []string{WirePathPortable}
	if BatchSupported() {
		paths = append(paths, WirePathBatch)
	}
	return paths
}

func newUDPPairPath(t *testing.T, networks int, path string, cfg UDPConfig) (*UDPTransport, *UDPTransport) {
	t.Helper()
	listen := make([]string, networks)
	for i := range listen {
		listen[i] = "127.0.0.1:0"
	}
	cfg.Listen = listen
	cfg.WirePath = path
	cfg.ID = 1
	a, err := NewUDP(cfg)
	if err != nil {
		t.Fatalf("NewUDP a: %v", err)
	}
	t.Cleanup(func() { a.Close() })
	cfg.ID = 2
	b, err := NewUDP(cfg)
	if err != nil {
		t.Fatalf("NewUDP b: %v", err)
	}
	t.Cleanup(func() { b.Close() })
	if err := a.AddPeer(2, b.LocalAddrs()); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPeer(1, a.LocalAddrs()); err != nil {
		t.Fatal(err)
	}
	return a, b
}

// encodedToken builds a real KindToken frame, the packet class whose send
// must flush the batch queue immediately and must never overtake messages
// queued before it.
func encodedToken(t *testing.T) []byte {
	t.Helper()
	tok, err := (&wire.Token{Ring: proto.RingID{Rep: 1, Epoch: 1}, Seq: 7}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	return tok
}

// TestUDPPerDestinationFIFO pins the ordering contract the SRP relies on:
// datagrams from one sender to one destination arrive in Send order on
// both wire paths, across queued batches and explicit flushes.
func TestUDPPerDestinationFIFO(t *testing.T) {
	for _, path := range wirePaths() {
		t.Run(path, func(t *testing.T) {
			a, b := newUDPPairPath(t, 1, path, UDPConfig{})
			const n = 50
			for i := 0; i < n; i++ {
				if err := a.Send(0, 2, []byte(fmt.Sprintf("m-%02d", i))); err != nil {
					t.Fatal(err)
				}
				if i%16 == 15 {
					a.Flush()
				}
			}
			a.Flush()
			for i := 0; i < n; i++ {
				p := recvOne(t, b, 2*time.Second)
				if want := fmt.Sprintf("m-%02d", i); string(p.Data) != want {
					t.Fatalf("datagram %d reordered: got %q want %q", i, p.Data, want)
				}
			}
		})
	}
}

// TestUDPTokenNeverOvertakesQueue pins the control-flush path: a token
// sent after queued data flushes the whole queue FIFO, so the token is
// received after every message that was sent before it — the batched
// driver must not let the token jump the queue.
func TestUDPTokenNeverOvertakesQueue(t *testing.T) {
	tok := encodedToken(t)
	for _, path := range wirePaths() {
		t.Run(path, func(t *testing.T) {
			a, b := newUDPPairPath(t, 1, path, UDPConfig{})
			for i := 0; i < 10; i++ {
				if err := a.Send(0, 2, []byte(fmt.Sprintf("d-%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := a.Send(0, 2, tok); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				p := recvOne(t, b, 2*time.Second)
				if want := fmt.Sprintf("d-%d", i); string(p.Data) != want {
					t.Fatalf("position %d: got %q want %q (token overtook data?)", i, p.Data, want)
				}
			}
			p := recvOne(t, b, 2*time.Second)
			if k, err := wire.PeekKind(p.Data); err != nil || k != wire.KindToken {
				t.Fatalf("position 10: want token, got kind %v err %v (%q)", k, err, p.Data)
			}
		})
	}
}

// TestUDPOversizeKeepsFIFO pins the bypass path: a datagram too large for
// a batch slot is sent directly, but only after the queued batch flushes,
// so it cannot overtake earlier traffic.
func TestUDPOversizeKeepsFIFO(t *testing.T) {
	big := make([]byte, wire.FrameCap+200)
	for i := range big {
		big[i] = byte(i)
	}
	for _, path := range wirePaths() {
		t.Run(path, func(t *testing.T) {
			a, b := newUDPPairPath(t, 1, path, UDPConfig{})
			if err := a.Send(0, 2, []byte("first")); err != nil {
				t.Fatal(err)
			}
			if err := a.Send(0, 2, big); err != nil {
				t.Fatal(err)
			}
			if p := recvOne(t, b, 2*time.Second); string(p.Data) != "first" {
				t.Fatalf("oversize datagram overtook the queue: got %q", p.Data)
			}
			if p := recvOne(t, b, 2*time.Second); len(p.Data) < wire.FrameCap {
				t.Fatalf("oversize datagram lost: got %d bytes", len(p.Data))
			}
		})
	}
}

// TestUDPZeroLengthSend pins that an empty payload survives the send
// queue (it is legal UDP and must not wedge the iovec construction).
func TestUDPZeroLengthSend(t *testing.T) {
	for _, path := range wirePaths() {
		t.Run(path, func(t *testing.T) {
			a, b := newUDPPairPath(t, 1, path, UDPConfig{})
			if err := a.Send(0, 2, []byte{}); err != nil {
				t.Fatal(err)
			}
			a.Flush()
			if p := recvOne(t, b, 2*time.Second); len(p.Data) != 0 {
				t.Fatalf("zero-length send delivered %d bytes", len(p.Data))
			}
		})
	}
}

// TestUDPSendErrorCounted pins satellite fix #1: a WriteToUDP failure is
// no longer silently dropped — it lands in udp.netI.tx_errors on both wire
// paths. A >64KiB datagram trips EMSGSIZE deterministically (it also
// exceeds a batch slot, so on the batched driver it takes the same direct
// WriteToUDP path whose errors used to vanish).
func TestUDPSendErrorCounted(t *testing.T) {
	huge := make([]byte, 70000)
	for _, path := range wirePaths() {
		t.Run(path, func(t *testing.T) {
			a, _ := newUDPPairPath(t, 1, path, UDPConfig{})
			reg := metrics.NewRegistry()
			a.RegisterMetrics(reg)

			if err := a.Send(0, proto.BroadcastID, huge); err != nil {
				t.Fatalf("broadcast reported error despite best-effort contract: %v", err)
			}
			if v, ok := reg.Get("udp.net0.tx_errors"); !ok || v < 1 {
				t.Fatalf("broadcast send error not counted: %d %v", v, ok)
			}

			before, _ := reg.Get("udp.net0.tx_errors")
			if err := a.Send(0, 2, huge); err == nil {
				t.Fatal("unicast of 70000 bytes succeeded")
			}
			if v, _ := reg.Get("udp.net0.tx_errors"); v != before+1 {
				t.Fatalf("unicast send error not counted: %d -> %d", before, v)
			}
		})
	}
}

// TestUDPBatchFlushReasons pins the batched driver's flush policy through
// its reason counters: explicit Flush, control packet, size overflow and
// the deadline backstop each account their flushes.
func TestUDPBatchFlushReasons(t *testing.T) {
	if !BatchSupported() {
		t.Skip("batched wire path not supported on this platform")
	}

	t.Run("explicit", func(t *testing.T) {
		a, b := newUDPPairPath(t, 1, WirePathBatch, UDPConfig{})
		reg := metrics.NewRegistry()
		a.RegisterMetrics(reg)
		if err := a.Send(0, 2, []byte("x")); err != nil {
			t.Fatal(err)
		}
		a.Flush()
		recvOne(t, b, 2*time.Second)
		if v, _ := reg.Get("udp.net0.flush_explicit"); v < 1 {
			t.Fatalf("flush_explicit = %d", v)
		}
	})

	t.Run("control", func(t *testing.T) {
		a, b := newUDPPairPath(t, 1, WirePathBatch, UDPConfig{})
		reg := metrics.NewRegistry()
		a.RegisterMetrics(reg)
		if err := a.Send(0, 2, encodedToken(t)); err != nil {
			t.Fatal(err)
		}
		recvOne(t, b, 2*time.Second)
		if v, _ := reg.Get("udp.net0.flush_control"); v < 1 {
			t.Fatalf("flush_control = %d", v)
		}
	})

	t.Run("size", func(t *testing.T) {
		// BatchMax 2 with a 3-peer broadcast overflows the entry budget
		// inside one enqueue (mutex held throughout), so the size flush is
		// deterministic — no race against the deadline timer.
		listen := []string{"127.0.0.1:0"}
		var trs []*UDPTransport
		for i := 1; i <= 4; i++ {
			tr, err := NewUDP(UDPConfig{
				ID: proto.NodeID(i), Listen: listen,
				WirePath: WirePathBatch, BatchMax: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			trs = append(trs, tr)
		}
		for j, other := range trs[1:] {
			if err := trs[0].AddPeer(proto.NodeID(j+2), other.LocalAddrs()); err != nil {
				t.Fatal(err)
			}
		}
		reg := metrics.NewRegistry()
		trs[0].RegisterMetrics(reg)
		if err := trs[0].Send(0, proto.BroadcastID, []byte("fan")); err != nil {
			t.Fatal(err)
		}
		trs[0].Flush()
		for _, tr := range trs[1:] {
			if p := recvOne(t, tr, 2*time.Second); string(p.Data) != "fan" {
				t.Fatalf("got %q", p.Data)
			}
		}
		if v, _ := reg.Get("udp.net0.flush_size"); v < 1 {
			t.Fatalf("flush_size = %d", v)
		}
	})

	t.Run("deadline", func(t *testing.T) {
		a, b := newUDPPairPath(t, 1, WirePathBatch, UDPConfig{})
		reg := metrics.NewRegistry()
		a.RegisterMetrics(reg)
		if err := a.Send(0, 2, []byte("lone")); err != nil {
			t.Fatal(err)
		}
		// No flush: the 200µs backstop must put it on the wire by itself.
		if p := recvOne(t, b, 2*time.Second); string(p.Data) != "lone" {
			t.Fatalf("got %q", p.Data)
		}
		if v, _ := reg.Get("udp.net0.flush_deadline"); v < 1 {
			t.Fatalf("flush_deadline = %d", v)
		}
	})
}

// TestUDPBatchSyscallCoalescing pins the point of the batched driver: a
// queue of datagrams flushed at once costs far fewer kernel visits than
// datagrams sent: at least a 2x syscall reduction, the property the live
// Figure 6 analog measured (EXPERIMENTS.md).
func TestUDPBatchSyscallCoalescing(t *testing.T) {
	if !BatchSupported() {
		t.Skip("batched wire path not supported on this platform")
	}
	a, b := newUDPPairPath(t, 1, WirePathBatch, UDPConfig{})
	reg := metrics.NewRegistry()
	a.RegisterMetrics(reg)
	const n = 32
	for i := 0; i < n; i++ {
		if err := a.Send(0, 2, []byte(fmt.Sprintf("c-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	a.Flush()
	for i := 0; i < n; i++ {
		recvOne(t, b, 2*time.Second)
	}
	dg, _ := reg.Get("udp.net0.tx_datagrams")
	sc, _ := reg.Get("udp.net0.tx_syscalls")
	if dg != n {
		t.Fatalf("tx_datagrams = %d, want %d", dg, n)
	}
	// One enqueue burst should need a handful of sendmmsg calls at most;
	// ≤ n/2 pins a ≥2× syscall reduction without depending on kernel mood.
	if sc > n/2 {
		t.Fatalf("tx_syscalls = %d for %d datagrams: batching not coalescing", sc, dg)
	}
}
