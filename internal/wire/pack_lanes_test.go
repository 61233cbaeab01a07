package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"github.com/totem-rrp/totem/internal/proto"
)

// Tests for the two-lane Packer, the boundary-arithmetic audit, the
// analytic packet-count models, and the Assembler Dropped accounting.

// --- Satellite: Assembler.Add abandoned-prefix accounting ---

func TestAssemblerCountsAbandonedPrefixOnFreshFirst(t *testing.T) {
	a := NewAssembler()
	a.Add(1, Chunk{Flags: ChunkFirst, Data: []byte("old")})
	a.Add(1, Chunk{Flags: ChunkFirst, Data: []byte("new")})
	if a.Dropped != 1 {
		t.Fatalf("fresh ChunkFirst mid-reassembly must count the abandoned prefix: Dropped = %d, want 1", a.Dropped)
	}
	m, ok := a.Add(1, Chunk{Flags: ChunkLast, Data: []byte("!")})
	if !ok || string(m) != "new!" {
		t.Fatalf("restart semantics broken: %q %v", m, ok)
	}
	if a.Dropped != 1 {
		t.Fatalf("completing the restarted message must not count again: Dropped = %d", a.Dropped)
	}
}

func TestAssemblerCountsAbandonedPrefixOnWholeMessage(t *testing.T) {
	// A First|Last chunk arriving mid-reassembly also abandons the partial.
	a := NewAssembler()
	a.Add(1, Chunk{Flags: ChunkFirst, Data: []byte("old")})
	m, ok := a.Add(1, Chunk{Flags: ChunkFirst | ChunkLast, Data: []byte("whole")})
	if !ok || string(m) != "whole" {
		t.Fatalf("whole message not returned: %q %v", m, ok)
	}
	if a.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", a.Dropped)
	}
	// The abandoned partial must be gone: a continuation is now an orphan.
	if _, ok := a.Add(1, Chunk{Flags: ChunkLast, Data: []byte("tail")}); ok {
		t.Fatal("abandoned partial resurrected by later continuation")
	}
	if a.Dropped != 2 {
		t.Fatalf("orphan after abandonment: Dropped = %d, want 2", a.Dropped)
	}
}

func TestAssemblerLanesDoNotCollide(t *testing.T) {
	// The same sender may fragment on both lanes at once; reassembly state
	// is keyed per (sender, lane).
	a := NewAssembler()
	a.Add(1, Chunk{Flags: ChunkFirst, Data: []byte("int-")})
	a.Add(1, Chunk{Flags: ChunkBulk | ChunkFirst, Data: []byte("blk-")})
	mi, ok := a.Add(1, Chunk{Flags: ChunkLast, Data: []byte("a")})
	if !ok || string(mi) != "int-a" {
		t.Fatalf("interactive lane reassembly: %q %v", mi, ok)
	}
	mb, ok := a.Add(1, Chunk{Flags: ChunkBulk | ChunkLast, Data: []byte("b")})
	if !ok || string(mb) != "blk-b" {
		t.Fatalf("bulk lane reassembly: %q %v", mb, ok)
	}
	if a.Dropped != 0 {
		t.Fatalf("clean two-lane interleave dropped %d", a.Dropped)
	}
}

// --- Satellite: boundary arithmetic, exhaustively, at small budgets ---

// drainBudget runs the budget-parameterised packer core to exhaustion and
// checks the per-packet invariants: progress on every call, framed size
// within budget, no zero-byte continuation chunk (a fragment boundary
// landing exactly on the budget must close the packet instead), at most
// MaxChunks chunks, and byte-exact reassembly of every lane's stream.
func drainBudget(t *testing.T, p *Packer, budget int, wantInteractive, wantBulk [][]byte) {
	t.Helper()
	a := NewAssembler()
	var gotInt, gotBulk [][]byte
	for i := 0; !p.Empty(); i++ {
		if i > 100000 {
			t.Fatalf("budget %d: livelock", budget)
		}
		chunks := p.nextChunks(nil, budget, true)
		if len(chunks) == 0 {
			t.Fatalf("budget %d: no progress with %d+%d messages queued",
				budget, p.Backlog(), p.BulkBacklog())
		}
		used := 0
		for j, c := range chunks {
			used += len(c.Data) + ChunkOverhead
			first := c.Flags&ChunkFirst != 0
			if len(c.Data) == 0 && !first {
				t.Fatalf("budget %d: zero-byte continuation chunk %d (flags %x)", budget, j, c.Flags)
			}
			if m, ok := a.Add(9, c); ok {
				cp := append([]byte(nil), m...)
				if c.Flags&ChunkBulk != 0 {
					gotBulk = append(gotBulk, cp)
				} else {
					gotInt = append(gotInt, cp)
				}
			}
		}
		if used > budget {
			t.Fatalf("budget %d: packet used %d", budget, used)
		}
		if len(chunks) > MaxChunks {
			t.Fatalf("budget %d: %d chunks exceeds MaxChunks", budget, len(chunks))
		}
	}
	check := func(lane string, got, want [][]byte) {
		if len(got) != len(want) {
			t.Fatalf("budget %d: %s lane delivered %d messages, want %d", budget, lane, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("budget %d: %s message %d corrupted (%d bytes in, %d out)",
					budget, lane, i, len(want[i]), len(got[i]))
			}
		}
	}
	check("interactive", gotInt, wantInteractive)
	check("bulk", gotBulk, wantBulk)
	if a.Dropped != 0 {
		t.Fatalf("budget %d: dropped %d chunks of a clean stream", budget, a.Dropped)
	}
}

func TestPackerBoundaryArithmeticExhaustive(t *testing.T) {
	// Every (budget, message-size) pair in a small box, both lanes. This
	// covers in particular the case the issue calls out: a fragment boundary
	// landing exactly on the budget (size ≡ 0 mod budget-ChunkOverhead),
	// where a naive continuation would emit a zero-byte chunk.
	for budget := ChunkOverhead + 1; budget <= 4*ChunkOverhead+8; budget++ {
		for size := 0; size <= 3*(budget-ChunkOverhead); size++ {
			msg := fill(size, byte(size))
			var p Packer
			p.Enqueue(append([]byte(nil), msg...))
			drainBudget(t, &p, budget, [][]byte{msg}, nil)

			var pb Packer
			pb.EnqueueBulk(append([]byte(nil), msg...))
			drainBudget(t, &pb, budget, nil, [][]byte{msg})
		}
	}
}

func TestPackerBoundaryArithmeticMixedQueues(t *testing.T) {
	// Multi-message queues at tiny budgets: exact-boundary fragment followed
	// by more traffic on both lanes.
	for budget := ChunkOverhead + 1; budget <= 2*ChunkOverhead+6; budget++ {
		take := budget - ChunkOverhead
		sets := [][]int{
			{take, take, take},           // every message exactly one full chunk
			{2 * take, 1},                // boundary lands exactly on budget, then small
			{3*take - 1, 3 * take, 0},    // near-boundary, boundary, empty
			{0, 0, take * 2},             // empty messages first
			{take*2 + 1, take, take * 3}, // off-by-one over boundary
		}
		for _, sizes := range sets {
			var wantI, wantB [][]byte
			var p Packer
			for i, n := range sizes {
				m := fill(n, byte(7*i+1))
				wantI = append(wantI, m)
				p.Enqueue(append([]byte(nil), m...))
			}
			for i, n := range sizes {
				m := fill(n, byte(11*i+5))
				wantB = append(wantB, m)
				p.EnqueueBulk(append([]byte(nil), m...))
			}
			drainBudget(t, &p, budget, wantI, wantB)
		}
	}
}

func TestPackerTinyMessagesRespectMaxChunks(t *testing.T) {
	// 1-byte messages: byte budget alone would allow 356 per packet, but the
	// encoder caps a packet at MaxChunks. The old packer overflowed this and
	// produced unencodable packets (silently lost at broadcast).
	var p Packer
	const n = 3 * MaxChunks
	for i := 0; i < n; i++ {
		p.Enqueue([]byte{byte(i)})
	}
	packets := 0
	for !p.Empty() {
		chunks := p.NextChunks()
		if len(chunks) > MaxChunks {
			t.Fatalf("packet holds %d chunks, encoder cap is %d", len(chunks), MaxChunks)
		}
		dp := &DataPacket{Ring: proto.RingID{Rep: 1, Epoch: 1}, Sender: 1, Seq: uint32(packets + 1), Chunks: chunks}
		if _, err := dp.Encode(); err != nil {
			t.Fatalf("packet %d not encodable: %v", packets, err)
		}
		packets++
	}
	if want := PacketsFor(1, n); packets != want {
		t.Fatalf("drained %d 1-byte messages in %d packets, PacketsFor says %d", n, packets, want)
	}
}

// --- Satellite: analytic packet-count models vs the real Packer ---

func packetsByDraining(p *Packer) int {
	n := 0
	for !p.Empty() {
		if p.NextChunks() == nil {
			return -1
		}
		n++
	}
	return n
}

func TestPacketsForDifferentialAgainstNextChunks(t *testing.T) {
	sizes := []int{1, 2, 3, 8, 64, 100, 355, 356, 700, 711, 712, 1400,
		maxWhole - 1, maxWhole, maxWhole + 1, 2 * maxWhole, 2*maxWhole + 1,
		3*maxWhole - 1, 10000}
	counts := []int{0, 1, 2, 3, 7, 20}
	for _, sz := range sizes {
		for _, cnt := range counts {
			var p Packer
			for i := 0; i < cnt; i++ {
				p.Enqueue(fill(sz, byte(i)))
			}
			got := packetsByDraining(&p)
			if want := PacketsFor(sz, cnt); got != want {
				t.Errorf("uniform interactive %d x %dB: packer used %d packets, PacketsFor says %d", cnt, sz, got, want)
			}
		}
	}
}

func TestPacketsForBulkDifferentialAgainstNextChunks(t *testing.T) {
	sizes := []int{1, 8, 100, 700, maxWhole, maxWhole + 1, 2 * maxWhole, 8192, 10000}
	counts := []int{0, 1, 2, 3, 7, 20}
	for _, sz := range sizes {
		for _, cnt := range counts {
			var p Packer
			for i := 0; i < cnt; i++ {
				p.EnqueueBulk(fill(sz, byte(i)))
			}
			got := packetsByDraining(&p)
			if want := PacketsForBulk(sz, cnt); got != want {
				t.Errorf("uniform bulk %d x %dB: packer used %d packets, PacketsForBulk says %d", cnt, sz, got, want)
			}
		}
	}
}

func TestPacketsForBulkStreamsAcrossMessages(t *testing.T) {
	// The defining difference between the models: bulk fragments share
	// packets across message boundaries, interactive fragments do not.
	const sz, cnt = maxWhole + 100, 4
	ifPackets := PacketsFor(sz, cnt)      // 2 per message: fresh-packet rule
	blkPackets := PacketsForBulk(sz, cnt) // streamed: ceil(total/payload)-ish
	if ifPackets != 2*cnt {
		t.Fatalf("interactive model: %d, want %d", ifPackets, 2*cnt)
	}
	if blkPackets >= ifPackets {
		t.Fatalf("bulk streaming must beat interactive fragmentation: %d vs %d", blkPackets, ifPackets)
	}
}

// --- Two-lane scheduling behaviour ---

func TestPackerBulkFillsLeftoverBudget(t *testing.T) {
	// One 700B interactive message leaves 721B of budget; the bulk stream
	// must fill it (and may start mid-packet, unlike interactive).
	var p Packer
	p.Enqueue(fill(700, 1))
	p.EnqueueBulk(fill(2000, 2))
	chunks := p.NextChunks()
	if len(chunks) != 2 {
		t.Fatalf("want interactive + bulk chunk sharing the packet, got %d chunks", len(chunks))
	}
	if chunks[0].Flags != ChunkFirst|ChunkLast {
		t.Fatalf("interactive chunk flags %x", chunks[0].Flags)
	}
	if chunks[1].Flags != ChunkBulk|ChunkFirst {
		t.Fatalf("bulk chunk flags %x, want bulk first fragment", chunks[1].Flags)
	}
	if got := len(chunks[1].Data); got != MaxPayload-(700+ChunkOverhead)-ChunkOverhead {
		t.Fatalf("bulk fragment should fill the leftover budget exactly, got %d bytes", got)
	}
}

func TestPackerInteractiveOnlySkipsBulk(t *testing.T) {
	var p Packer
	p.Enqueue(fill(100, 1))
	p.EnqueueBulk(fill(100, 2))
	chunks := p.AppendChunks(nil, false)
	if len(chunks) != 1 || chunks[0].Flags&ChunkBulk != 0 {
		t.Fatalf("interactive-only packet leaked bulk chunks: %+v", chunks)
	}
	if p.BulkBacklog() != 1 {
		t.Fatalf("bulk lane touched: backlog %d", p.BulkBacklog())
	}
	// The bulk message is still intact and delivered later.
	rest := p.NextChunks()
	if len(rest) != 1 || rest[0].Flags != ChunkBulk|ChunkFirst|ChunkLast {
		t.Fatalf("bulk message mangled: %+v", rest)
	}
}

func TestPackerLaneAccounting(t *testing.T) {
	var p Packer
	p.Enqueue(fill(100, 1))
	p.EnqueueBulk(fill(5000, 2))
	p.EnqueueBulk(fill(50, 3))
	if p.Backlog() != 1 || p.BulkBacklog() != 2 {
		t.Fatalf("backlog %d/%d, want 1/2", p.Backlog(), p.BulkBacklog())
	}
	if p.QueuedBytes() != 5150 {
		t.Fatalf("queued bytes %d, want 5150", p.QueuedBytes())
	}
	p.NextChunks() // drains interactive, starts the 5000B bulk transfer
	if p.Backlog() != 0 || p.BulkBacklog() != 2 {
		t.Fatalf("after one packet: backlog %d/%d, want 0/2", p.Backlog(), p.BulkBacklog())
	}
	if p.Empty() {
		t.Fatal("bulk bytes remain")
	}
	for !p.Empty() {
		p.NextChunks()
	}
	if p.QueuedBytes() != 0 {
		t.Fatalf("drained packer reports %d queued bytes", p.QueuedBytes())
	}
}

func TestPackerTakeFinishedBulk(t *testing.T) {
	var p Packer
	p.CollectFinished(true)
	b1, b2 := fill(100, 1), fill(2000, 2)
	p.EnqueueBulk(b1)
	p.EnqueueBulk(b2)
	p.Enqueue(fill(10, 3)) // interactive buffers are never collected
	var got [][]byte
	for !p.Empty() {
		p.NextChunks()
		got = append(got, p.TakeFinishedBulk()...)
	}
	if len(got) != 2 || &got[0][0] != &b1[0] || &got[1][0] != &b2[0] {
		t.Fatalf("finished bulk buffers not returned in emit order: %d buffers", len(got))
	}
	if p.TakeFinishedBulk() != nil {
		t.Fatal("TakeFinishedBulk must reset the list")
	}
}

func TestPackerRewindRestartsPartialMessages(t *testing.T) {
	// After Rewind a partially-emitted message re-emits whole: the SRP uses
	// this on ring change so the new ring never sees a continuation with no
	// start.
	var p Packer
	msg := fill(2*maxWhole, 1)
	blk := fill(3000, 2)
	p.Enqueue(append([]byte(nil), msg...))
	p.EnqueueBulk(append([]byte(nil), blk...))
	first := p.NextChunks()
	if len(first) != 1 || first[0].Flags != ChunkFirst {
		t.Fatalf("setup: want one interactive first-fragment, got %+v", first)
	}
	p.Rewind()
	drainBudget(t, &p, MaxPayload, [][]byte{msg}, [][]byte{blk})
}

func TestPackerRewindOnFreshQueuesIsNoOp(t *testing.T) {
	var p Packer
	p.Rewind()
	if !p.Empty() || p.QueuedBytes() != 0 {
		t.Fatal("Rewind on empty packer changed state")
	}
	p.Enqueue(fill(10, 1))
	p.Rewind()
	chunks := p.NextChunks()
	if len(chunks) != 1 || chunks[0].Flags != ChunkFirst|ChunkLast {
		t.Fatalf("Rewind before first emit broke packing: %+v", chunks)
	}
}

// --- Satellite: lane interleaving under fuzz-like randomised load ---

// TestQuickLaneInterleaving mixes interactive and bulk enqueues in random
// order and asserts FIFO within each lane, byte-exact reassembly, and no
// interactive starvation (every interactive message is delivered within a
// bounded number of packets of being at the head of its lane).
func TestQuickLaneInterleaving(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		var p Packer
		a := NewAssembler()
		var wantI, wantB, gotI, gotB [][]byte
		n := 1 + rng.Intn(12)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				m := fill(rng.Intn(3*maxWhole), byte(i+1))
				wantI = append(wantI, m)
				p.Enqueue(append([]byte(nil), m...))
			} else {
				m := fill(rng.Intn(20000), byte(i+101))
				wantB = append(wantB, m)
				p.EnqueueBulk(append([]byte(nil), m...))
			}
		}
		resetAt := -1
		if rng.Intn(4) == 0 {
			resetAt = rng.Intn(8) // exercise Assembler.Reset mid-transfer
		}
		for pkt := 0; !p.Empty(); pkt++ {
			if pkt > 100000 {
				t.Fatalf("trial %d: livelock", trial)
			}
			if pkt == resetAt {
				// A configuration change wipes reassembly state; the packer
				// rewinds so in-flight fragments restart whole. Nothing may
				// be lost or corrupted — only re-sent.
				a.Reset()
				a.Dropped = 0
				p.Rewind()
			}
			chunks := p.NextChunks()
			if len(chunks) == 0 {
				t.Fatalf("trial %d: no progress", trial)
			}
			for _, c := range chunks {
				if m, ok := a.Add(3, c); ok {
					cp := append([]byte(nil), m...)
					if c.Flags&ChunkBulk != 0 {
						gotB = append(gotB, cp)
					} else {
						gotI = append(gotI, cp)
					}
				}
			}
		}
		check := func(lane string, got, want [][]byte) {
			if len(got) != len(want) {
				t.Fatalf("trial %d: %s delivered %d of %d messages", trial, lane, len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("trial %d: %s message %d not FIFO/byte-exact", trial, lane, i)
				}
			}
		}
		check("interactive", gotI, wantI)
		check("bulk", gotB, wantB)
		if a.Dropped != 0 {
			t.Fatalf("trial %d: dropped %d", trial, a.Dropped)
		}
	}
}

func TestPackerBulkNeverStarvesInteractive(t *testing.T) {
	// With a huge bulk backlog queued first, a later interactive enqueue
	// still rides in the very next packet: interactive fills first.
	var p Packer
	p.EnqueueBulk(fill(1<<20, 1))
	p.NextChunks() // bulk transfer underway
	p.Enqueue(fill(200, 2))
	chunks := p.NextChunks()
	if len(chunks) == 0 || chunks[0].Flags&ChunkBulk != 0 || len(chunks[0].Data) != 200 {
		t.Fatalf("interactive message must preempt the bulk stream: %+v", chunks[0].Flags)
	}
}

// --- Token codec: BulkBacklog field ---

func TestTokenRoundTripBulkBacklog(t *testing.T) {
	tok := &Token{
		Ring: proto.RingID{Rep: 2, Epoch: 8}, Seq: 10, Rotation: 3,
		ARU: 9, ARUID: 1, FCC: 4, Backlog: 2, BulkBacklog: 77,
		RTR: []uint32{5, 6},
	}
	data, err := tok.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeToken(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(tok, got) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, tok)
	}
	// PeekTokenSeq reads the leading fixed fields and must be unaffected by
	// the widened body.
	seq, rot, err := PeekTokenSeq(data)
	if err != nil || seq != 10 || rot != 3 {
		t.Fatalf("peek = (%d,%d,%v)", seq, rot, err)
	}
}
