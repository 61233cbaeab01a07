package srp

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/totem-rrp/totem/internal/wire"
)

// TestRxWindowMatchesMap drives the receive window and a reference map
// through the same random put/get/prune sequence — gaps, out-of-order and
// below-horizon puts, stale and far prunes, keys past the bound — and
// requires identical contents throughout. The reference is the window's
// contract: every sequence number at or below base is absent, a put below
// base moves it down, a prune moves it up, and beyond is measured from
// it.
func TestRxWindowMatchesMap(t *testing.T) {
	const limit = 200
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var w rxWindow
		var free packetFree
		ref := map[uint32]*wire.DataPacket{}
		var base, hi, span uint32
		check := func(op string) {
			t.Helper()
			for s := base - min(base, 40); s <= hi+40; s++ {
				if got, want := w.get(s), ref[s]; got != want {
					t.Fatalf("seed %d after %s: get(%d) = %p, reference %p (base %d)", seed, op, s, got, want, base)
				}
			}
			if w.base != base {
				t.Fatalf("seed %d after %s: base %d, reference %d", seed, op, w.base, base)
			}
			span = max(span, hi-base)
		}
		for i := 0; i < 3000; i++ {
			switch r := rng.Intn(10); {
			case r < 6: // put: mostly just past base, sometimes below it or far out
				var seq uint32
				switch k := rng.Intn(10); {
				case k < 7:
					seq = base + 1 + uint32(rng.Intn(limit/2))
				case k < 9:
					seq = 1 + uint32(rng.Intn(int(base)+1))
				default:
					seq = base + 1 + uint32(rng.Intn(3*limit))
				}
				beyond := seq > base && seq-base > limit
				if w.beyond(seq, limit) != beyond {
					t.Fatalf("seed %d: beyond(%d) with base %d = %v", seed, seq, base, !beyond)
				}
				if beyond {
					continue // dropped, as onData drops it
				}
				p := &wire.DataPacket{Seq: seq}
				w.put(seq, p)
				ref[seq] = p
				if seq <= base {
					base = seq - 1
				}
				hi = max(hi, seq)
				check(fmt.Sprintf("put(%d)", seq))
			case r < 9:
				h := base + uint32(rng.Intn(limit/2))
				if rng.Intn(5) == 0 && base > 10 {
					h = base - 10 // stale horizon: a no-op
				}
				n := 0
				for s := range ref {
					if s <= h {
						delete(ref, s)
						n++
					}
				}
				before := len(free.list)
				w.prune(h, &free)
				if got := len(free.list) - before; got != min(n, maxFreePackets-before) {
					t.Fatalf("seed %d: prune(%d) recycled %d packets, reference pruned %d", seed, h, got, n)
				}
				free.list = free.list[:0]
				base = max(base, h)
				hi = max(hi, base)
				check(fmt.Sprintf("prune(%d)", h))
			default:
				s := base + uint32(rng.Intn(limit))
				if w.get(s) != ref[s] {
					t.Fatalf("seed %d: get(%d) disagrees", seed, s)
				}
			}
		}
		if uint32(len(w.slots)) >= 2*span+16 {
			t.Fatalf("seed %d: window grew to %d slots for at most a %d-wide span", seed, len(w.slots), span)
		}
	}
}

// TestRxBeyondWindowDropsGarbledSeq: a current-ring packet further past
// the prune horizon than rxBeyondWindows windows is dropped and counted
// instead of growing the window; one just inside the bound is held.
func TestRxBeyondWindowDropsGarbledSeq(t *testing.T) {
	m, _, acts := operationalMachine(t, 2)
	limit := rxBeyondWindows * uint32(m.cfg.WindowSize)
	encode := func(seq uint32) []byte {
		data, err := mkData(m, 1, seq, "x").Encode()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	m.OnPacket(0, encode(limit+1))
	if got := m.ctr.rxBeyondWindow.Count(); got != 1 {
		t.Fatalf("srp.rx_beyond_window = %d, want 1", got)
	}
	if m.rx.get(limit+1) != nil || m.highSeq != 0 || len(m.rx.slots) != 0 {
		t.Fatalf("far-future packet stored: high %d, %d slots", m.highSeq, len(m.rx.slots))
	}
	m.OnPacket(0, encode(limit))
	if m.rx.get(limit) == nil || m.ctr.rxBeyondWindow.Count() != 1 {
		t.Fatal("packet at the bound not held")
	}
	if got := drainDeliveries(acts); len(got) != 0 {
		t.Fatalf("delivered %d messages past a gap", len(got))
	}
}

// TestRecycledHeadersKeepDeliveredPayloads: pruned packet headers are
// reused by later decodes, but the payloads delivered from them are the
// decoder's private regions and keep their bytes.
func TestRecycledHeadersKeepDeliveredPayloads(t *testing.T) {
	m, _, acts := operationalMachine(t, 2)
	feed := func(from, to uint32, tag string) {
		for s := from; s <= to; s++ {
			data, err := mkData(m, 1, s, fmt.Sprintf("%s-%d", tag, s)).Encode()
			if err != nil {
				t.Fatal(err)
			}
			m.OnPacket(0, data)
			clear(data) // the transport recycles the frame
		}
	}
	feed(1, 10, "first")
	first := drainDeliveries(acts)
	if len(first) != 10 {
		t.Fatalf("delivered %d, want 10", len(first))
	}
	headers := map[*wire.DataPacket]bool{}
	for s := uint32(1); s <= 10; s++ {
		headers[m.rx.get(s)] = true
	}
	m.safeTo = m.deliveredTo
	m.prune()
	if m.rx.get(5) != nil || len(m.pktFree.list) != 10 {
		t.Fatalf("prune left seq 5 held, %d headers free", len(m.pktFree.list))
	}
	feed(11, 20, "second")
	if got := drainDeliveries(acts); len(got) != 10 {
		t.Fatalf("second batch delivered %d, want 10", len(got))
	}
	reused := 0
	for s := uint32(11); s <= 20; s++ {
		if headers[m.rx.get(s)] {
			reused++
		}
	}
	if reused != 10 {
		t.Fatalf("%d of 10 later packets reuse a pruned header", reused)
	}
	for i, d := range first {
		if want := fmt.Sprintf("first-%d", i+1); !bytes.Equal(d.Payload, []byte(want)) {
			t.Fatalf("delivery %d payload = %q after header reuse, want %q", i, d.Payload, want)
		}
	}
}

// TestRetransmissionRequestForPrunedSeqFindsNothing: once a packet is
// pruned, a request for it is left on the token for someone else — even
// after its recycled header carries a newer packet.
func TestRetransmissionRequestForPrunedSeqFindsNothing(t *testing.T) {
	m, out, _ := operationalMachine(t, 2)
	for s := uint32(1); s <= 3; s++ {
		data, err := mkData(m, 1, s, "p").Encode()
		if err != nil {
			t.Fatal(err)
		}
		m.OnPacket(0, data)
	}
	m.safeTo = 2
	m.prune()
	data, err := mkData(m, 1, 4, "reuse").Encode()
	if err != nil {
		t.Fatal(err)
	}
	m.OnPacket(0, data)
	tok := &wire.Token{Ring: m.ring, Seq: 4, RTR: []uint32{1, 2, 3}}
	if sent := m.serveRetransmissions(tok); sent != 1 || len(out.broadcasts) != 1 {
		t.Fatalf("served %d retransmissions, want only seq 3", sent)
	}
	if len(tok.RTR) != 2 || tok.RTR[0] != 1 || tok.RTR[1] != 2 {
		t.Fatalf("RTR left %v, want the pruned [1 2]", tok.RTR)
	}
	served, err := wire.DecodeData(out.broadcasts[0])
	if err != nil || served.Seq != 3 {
		t.Fatalf("served packet seq %v, err %v", served, err)
	}
}
