package srp

import (
	"bytes"
	"testing"
	"time"

	"github.com/totem-rrp/totem/internal/bulk"
	"github.com/totem-rrp/totem/internal/proto"
	"github.com/totem-rrp/totem/internal/wire"
)

// Bulk-lane tests on the loopback harness: end-to-end transfer delivery,
// the windowed sender resuming across a configuration change, the
// mid-fragment rewind fix, per-visit pacing, and envelope-buffer
// recycling.

// bulkPayload builds a deterministic, position-dependent payload so that
// any reordering or truncation shows up as a byte mismatch.
func bulkPayload(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*131 + i>>8)
	}
	return p
}

// bulkDeliveries filters a node's deliveries down to completed bulk
// transfers.
func bulkDeliveries(n *hNode) []proto.Delivery {
	var out []proto.Delivery
	for _, d := range n.delivered {
		if d.Bulk {
			out = append(out, d)
		}
	}
	return out
}

func (h *harness) submitBulk(id proto.NodeID, xfer uint64, off, total int, data []byte) bool {
	n := h.machines[id]
	ok := n.m.SubmitBulk(h.now, xfer, uint64(off), uint64(total), data)
	n.drain()
	return ok
}

// TestBulkEndToEndDelivery pushes one transfer through a three-node ring
// and checks the uniform-delivery contract: every member, including the
// sender, surfaces exactly one Bulk delivery with the byte-exact payload,
// and the sender sees one BulkAcked per chunk.
func TestBulkEndToEndDelivery(t *testing.T) {
	h := newHarness(t, 3, nil)
	h.start()
	h.waitRing(2 * time.Second)

	payload := bulkPayload(5000)
	const chunk = 700
	const id = 42
	for off := 0; off < len(payload); off += chunk {
		end := off + chunk
		if end > len(payload) {
			end = len(payload)
		}
		if !h.submitBulk(1, id, off, len(payload), payload[off:end]) {
			t.Fatalf("SubmitBulk rejected at offset %d", off)
		}
	}

	if !h.runUntil(func() bool {
		for _, id := range h.order {
			if len(bulkDeliveries(h.machines[id])) == 0 {
				return false
			}
		}
		return true
	}, 2*time.Second) {
		t.Fatalf("transfer did not complete everywhere")
	}

	var seq uint32
	for _, nid := range h.order {
		ds := bulkDeliveries(h.machines[nid])
		if len(ds) != 1 {
			t.Fatalf("node %v: %d bulk deliveries, want 1", nid, len(ds))
		}
		d := ds[0]
		if d.Sender != 1 {
			t.Fatalf("node %v: sender %v, want 1", nid, d.Sender)
		}
		if !bytes.Equal(d.Payload, payload) {
			t.Fatalf("node %v: payload mismatch (%d bytes, want %d)", nid, len(d.Payload), len(payload))
		}
		if seq == 0 {
			seq = d.Seq
		} else if d.Seq != seq {
			t.Fatalf("node %v: delivery seq %d, others saw %d", nid, d.Seq, seq)
		}
	}

	// The sender's self-delivery acks: one per chunk, offsets covering the
	// transfer exactly.
	want := (len(payload) + chunk - 1) / chunk
	acked := make(map[uint64]int)
	for _, ev := range h.machines[1].bulkEvs {
		if ev.Kind == proto.BulkAcked && ev.ID == id {
			acked[ev.Offset] += ev.Len
		}
	}
	if len(acked) != want {
		t.Fatalf("sender acked %d distinct offsets, want %d", len(acked), want)
	}
	sum := 0
	for _, l := range acked {
		sum += l
	}
	if sum != len(payload) {
		t.Fatalf("acked bytes %d, want %d", sum, len(payload))
	}
}

// pumpSender runs one iteration of the sender-side manager loop against a
// harness node: consume acks and reconfig signals, then fill the window.
// It is the srp-level model of what the transport runtime does.
func pumpSender(h *harness, nid proto.NodeID, id uint64, s *bulk.SendState, payload []byte) {
	n := h.machines[nid]
	for _, ev := range n.bulkEvs {
		switch ev.Kind {
		case proto.BulkAcked:
			if ev.ID == id {
				s.Ack(s.ChunkAt(int(ev.Offset)))
			}
		case proto.BulkReconfig:
			s.Reconfig()
		}
	}
	n.bulkEvs = n.bulkEvs[:0]
	for {
		i, ok := s.Next()
		if !ok {
			return
		}
		off, end := s.Range(i)
		if !n.m.SubmitBulk(h.now, id, uint64(off), uint64(len(payload)), payload[off:end]) {
			s.Fail(i)
			return // backpressure: retry on the next pump
		}
		n.drain()
	}
}

// TestBulkWindowedSenderResumesAcrossConfigChange crashes a member while a
// windowed transfer is in flight. The BulkReconfig signal rewinds the
// sender to its contiguous acknowledged prefix; re-sent chunks the
// survivors already hold are deduplicated, and the transfer completes
// exactly once at every survivor.
func TestBulkWindowedSenderResumesAcrossConfigChange(t *testing.T) {
	h := newHarness(t, 3, nil)
	h.start()
	h.waitRing(2 * time.Second)

	payload := bulkPayload(20000)
	const id = 7
	s := bulk.NewSendState(len(payload), 900, 4, 8)

	// Run until a few chunks are acknowledged, then crash node 3.
	if !h.runUntil(func() bool {
		pumpSender(h, 1, id, s, payload)
		acked, _ := s.Progress()
		return acked >= 4
	}, 2*time.Second) {
		t.Fatalf("transfer made no progress before the crash")
	}
	h.machines[3].crashed = true

	if !h.runUntil(func() bool {
		pumpSender(h, 1, id, s, payload)
		return s.Done() &&
			len(bulkDeliveries(h.machines[1])) > 0 &&
			len(bulkDeliveries(h.machines[2])) > 0
	}, 5*time.Second) {
		acked, total := s.Progress()
		t.Fatalf("transfer did not resume after reconfiguration: acked %d/%d, err=%v",
			acked, total, s.Err())
	}

	for _, nid := range []proto.NodeID{1, 2} {
		ds := bulkDeliveries(h.machines[nid])
		if len(ds) != 1 {
			t.Fatalf("node %v: %d bulk deliveries, want exactly 1", nid, len(ds))
		}
		if !bytes.Equal(ds[0].Payload, payload) {
			t.Fatalf("node %v: payload mismatch after resume", nid)
		}
	}

	// The survivors went through at least one configuration change and the
	// sender was told about it.
	sawReconfig := false
	for _, c := range h.machines[1].configs {
		if !c.Transitional && len(c.Members) == 2 {
			sawReconfig = true
		}
	}
	if !sawReconfig {
		t.Fatalf("no two-member configuration installed after crash")
	}
}

// TestMidFragmentConfigChangeRestartsWholeMessage pins the Packer.Rewind
// call in resetRingState: a message caught mid-fragmentation by a ring
// change (one fragment pulled and lost, cursor left mid-message) must be
// re-emitted whole on the new ring and delivered exactly once everywhere.
// Without the rewind the new ring sees a continuation chunk with no start
// and the message silently vanishes.
func TestMidFragmentConfigChangeRestartsWholeMessage(t *testing.T) {
	h := newHarness(t, 2, nil)
	h.start()
	h.waitRing(2 * time.Second)

	n1 := h.machines[1]
	big := bulkPayload(3 * wire.MaxPayload)
	n1.m.packer.Enqueue(append([]byte(nil), big...))

	// Pull the first fragment directly and drop it on the floor — the
	// machine is now mid-message with a fragment the ring never carried.
	pulled := n1.m.packer.NextChunksInteractive()
	if len(pulled) != 1 || pulled[0].Flags&wire.ChunkFirst == 0 || pulled[0].Flags&wire.ChunkLast != 0 {
		t.Fatalf("expected one First non-Last fragment, got %d chunks", len(pulled))
	}

	// Force a configuration change mid-fragment.
	oldRing := n1.m.Ring()
	n1.m.enterGather(h.now, nil, nil)
	n1.drain()
	h.waitRing(2 * time.Second)
	if n1.m.Ring() == oldRing {
		t.Fatalf("ring did not change")
	}

	if !h.runUntil(func() bool {
		for _, nid := range h.order {
			found := false
			for _, d := range h.machines[nid].delivered {
				if !d.Bulk && bytes.Equal(d.Payload, big) {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return true
	}, 2*time.Second) {
		t.Fatalf("mid-fragment message was not re-delivered whole on the new ring")
	}

	for _, nid := range h.order {
		count := 0
		for _, d := range h.machines[nid].delivered {
			if !d.Bulk && bytes.Equal(d.Payload, big) {
				count++
			}
		}
		if count != 1 {
			t.Fatalf("node %v: message delivered %d times, want exactly once", nid, count)
		}
	}
}

// TestBulkPacingCapsBulkOnlyPacketsPerVisit saturates the bulk lane and
// counts fresh bulk-only data packets between consecutive token forwards
// at the sender: the count must reach the configured BulkMaxPerVisit
// (saturation actually hits the cap) and never exceed it.
func TestBulkPacingCapsBulkOnlyPacketsPerVisit(t *testing.T) {
	h := newHarness(t, 2, func(c *Config) {
		c.BulkMaxPerVisit = 3
		c.BulkYieldPerVisit = 1
	})
	h.start()
	h.waitRing(2 * time.Second)

	var cur, maxPer int
	h.drop = func(from, to proto.NodeID, data []byte) bool {
		if from != 1 {
			return false
		}
		switch k, _ := wire.PeekKind(data); k {
		case wire.KindData:
			if pkt, err := wire.DecodeData(data); err == nil &&
				pkt.Flags&wire.FlagRetrans == 0 &&
				len(pkt.Chunks) > 0 && pkt.Chunks[0].Flags&wire.ChunkBulk != 0 {
				cur++
				if cur > maxPer {
					maxPer = cur
				}
			}
		case wire.KindToken:
			cur = 0
		}
		return false
	}

	payload := bulkPayload(60 * 1200)
	const id = 9
	for off := 0; off < len(payload); off += 1200 {
		if !h.submitBulk(1, id, off, len(payload), payload[off:off+1200]) {
			t.Fatalf("SubmitBulk rejected at offset %d", off)
		}
	}

	if !h.runUntil(func() bool {
		return len(bulkDeliveries(h.machines[2])) > 0
	}, 5*time.Second) {
		t.Fatalf("saturating transfer did not complete")
	}
	if maxPer > 3 {
		t.Fatalf("observed %d bulk-only packets in one token visit, cap is 3", maxPer)
	}
	if maxPer != 3 {
		t.Fatalf("saturated lane never reached the per-visit cap (max %d, want 3)", maxPer)
	}
	if !bytes.Equal(bulkDeliveries(h.machines[2])[0].Payload, payload) {
		t.Fatalf("payload mismatch under pacing")
	}
}

// TestBulkBuffersRecycledAfterPrune checks the envelope-buffer lifecycle:
// once a transfer is delivered and the ring's safe horizon passes its
// packets, every harvested buffer moves from the per-seq map to the
// bounded free list — nothing leaks, and the free list respects its cap.
func TestBulkBuffersRecycledAfterPrune(t *testing.T) {
	h := newHarness(t, 2, nil)
	h.start()
	h.waitRing(2 * time.Second)

	payload := bulkPayload(30 * 1000)
	const id = 5
	for off := 0; off < len(payload); off += 1000 {
		if !h.submitBulk(1, id, off, len(payload), payload[off:off+1000]) {
			t.Fatalf("SubmitBulk rejected at offset %d", off)
		}
	}
	if !h.runUntil(func() bool {
		return len(bulkDeliveries(h.machines[2])) > 0
	}, 5*time.Second) {
		t.Fatalf("transfer did not complete")
	}

	// Keep the token moving so the safe-delivery horizon advances past the
	// bulk packets; interactive chatter forces full rotations.
	tick := 0
	if !h.runUntil(func() bool {
		tick++
		if tick%4 == 0 {
			h.submit(1, []byte("tick"))
			h.submit(2, []byte("tock"))
		}
		return len(h.machines[1].m.bulkBufs) == 0
	}, 5*time.Second) {
		t.Fatalf("bulk envelope buffers not recycled: %d seqs still held", len(h.machines[1].m.bulkBufs))
	}
	free := len(h.machines[1].m.bulkFree)
	if free == 0 {
		t.Fatalf("free list empty: prune recycled nothing")
	}
	if free > 64 {
		t.Fatalf("free list overgrew its cap: %d", free)
	}
}

// TestBulkBackToBackFragmentedTransfersRecycleEnvelopes streams transfers
// back to back through one sender in chunks too large for one packet, so
// every envelope is fragmented and reassembled from aliases of the
// envelope buffers, under loss. The sender keeps its queue short and
// draws envelopes from the free list as soon as prune refills it, so
// recycled buffers are rewritten while later envelopes are still in
// flight. Every member —
// the sender by self-delivery too — must deliver every transfer
// byte-exact, in order.
func TestBulkBackToBackFragmentedTransfersRecycleEnvelopes(t *testing.T) {
	h := newHarness(t, 3, nil)
	h.start()
	h.waitRing(2 * time.Second)

	const transfers, size, chunk = 6, 24000, 3000 // 3000 B envelopes span three packets
	payloads := make([][]byte, transfers)
	for x := range payloads {
		payloads[x] = bulkPayload(size)
		for i := range payloads[x] {
			payloads[x][i] += byte(17 * (x + 1))
		}
	}
	// Losing every seventh first transmission makes each member's delivery
	// — the sender's self-delivery included — lag behind the sends, and
	// makes the sender serve retransmissions from its retained packets.
	lost := 0
	h.drop = func(_, _ proto.NodeID, data []byte) bool {
		if k, _ := wire.PeekKind(data); k != wire.KindData {
			return false
		}
		if f, _ := wire.PeekDataFlags(data); f&wire.FlagRetrans != 0 {
			return false
		}
		lost++
		return lost%7 == 0
	}
	n1 := h.machines[1]
	next, reused, tick := 0, 0, 0 // next counts submitted chunks
	perTransfer := size / chunk
	done := func() bool {
		for _, nid := range h.order {
			if len(bulkDeliveries(h.machines[nid])) < transfers {
				return false
			}
		}
		return true
	}
	// Pump in steps shorter than a token rotation, so envelopes are drawn
	// and rewritten while earlier ones are still being delivered.
	for step := 0; !done(); step++ {
		if step == 20000 {
			t.Fatalf("transfers incomplete: %d of %d chunks submitted", next, transfers*perTransfer)
		}
		for next < transfers*perTransfer && n1.m.BulkBacklog() < 2 {
			x, off := next/perTransfer, next%perTransfer*chunk
			if len(n1.m.bulkFree) > 0 {
				reused++
			}
			if !h.submitBulk(1, uint64(x+1), off, size, payloads[x][off:off+chunk]) {
				break
			}
			next++
		}
		// Interactive chatter keeps the token rotating, so the safe horizon
		// advances and prune recycles envelopes.
		if tick++; tick%8 == 0 {
			h.submit(2, []byte("tick"))
			h.submit(3, []byte("tock"))
		}
		h.run(150 * time.Microsecond)
	}
	if reused == 0 {
		t.Fatal("no envelope was drawn from the free list; the test exercised no recycling")
	}
	for _, nid := range h.order {
		ds := bulkDeliveries(h.machines[nid])
		if len(ds) != transfers {
			t.Fatalf("node %v: %d bulk deliveries, want %d", nid, len(ds), transfers)
		}
		for x, d := range ds {
			if !bytes.Equal(d.Payload, payloads[x]) {
				t.Fatalf("node %v: transfer %d corrupted", nid, x+1)
			}
		}
	}
}
