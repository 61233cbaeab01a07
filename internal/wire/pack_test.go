package wire

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/totem-rrp/totem/internal/proto"
)

func fill(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i)
	}
	return b
}

func TestPackerTwo700ByteMessagesShareOnePacket(t *testing.T) {
	// The paper's sawtooth peak: 2 x 700 B (+2 x 3 B framing) = 1406 <= 1424.
	var p Packer
	p.Enqueue(fill(700, 1))
	p.Enqueue(fill(700, 2))
	chunks := p.NextChunks()
	if len(chunks) != 2 {
		t.Fatalf("want 2 chunks in one packet, got %d", len(chunks))
	}
	if !p.Empty() {
		t.Fatalf("queue should be drained")
	}
}

func TestPackerTwo712ByteMessagesNeedTwoPackets(t *testing.T) {
	// 2 x (712+3) = 1430 > 1424: second message must wait, unfragmented.
	var p Packer
	p.Enqueue(fill(712, 1))
	p.Enqueue(fill(712, 2))
	first := p.NextChunks()
	if len(first) != 1 {
		t.Fatalf("want 1 chunk in first packet, got %d", len(first))
	}
	if first[0].Flags != ChunkFirst|ChunkLast {
		t.Fatalf("whole message must not be fragmented, flags=%x", first[0].Flags)
	}
	second := p.NextChunks()
	if len(second) != 1 || len(second[0].Data) != 712 {
		t.Fatalf("second packet wrong: %d chunks", len(second))
	}
}

func TestPackerFragmentsOversizedMessage(t *testing.T) {
	msg := fill(3000, 7)
	var p Packer
	p.Enqueue(append([]byte(nil), msg...))
	var got []byte
	var flagsSeen []uint8
	for !p.Empty() {
		for _, c := range p.NextChunks() {
			got = append(got, c.Data...)
			flagsSeen = append(flagsSeen, c.Flags)
		}
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("fragment reassembly bytes differ: %d vs %d", len(got), len(msg))
	}
	if len(flagsSeen) < 3 {
		t.Fatalf("3000B must need >= 3 fragments, got %d", len(flagsSeen))
	}
	if flagsSeen[0] != ChunkFirst {
		t.Fatalf("first fragment flags = %x", flagsSeen[0])
	}
	if flagsSeen[len(flagsSeen)-1] != ChunkLast {
		t.Fatalf("last fragment flags = %x", flagsSeen[len(flagsSeen)-1])
	}
	for _, f := range flagsSeen[1 : len(flagsSeen)-1] {
		if f != 0 {
			t.Fatalf("middle fragment flags = %x", f)
		}
	}
}

func TestPackerFinalFragmentSharesPacketWithNextMessage(t *testing.T) {
	var p Packer
	p.Enqueue(fill(1500, 1)) // 1421 + 79
	p.Enqueue(fill(100, 2))
	first := p.NextChunks()
	if len(first) != 1 || len(first[0].Data) != maxWhole {
		t.Fatalf("first packet should be one full fragment, got %d chunks (%d bytes)",
			len(first), len(first[0].Data))
	}
	second := p.NextChunks()
	if len(second) != 2 {
		t.Fatalf("final fragment and next whole message should share a packet, got %d chunks", len(second))
	}
	if second[0].Flags != ChunkLast || second[1].Flags != ChunkFirst|ChunkLast {
		t.Fatalf("flags wrong: %x %x", second[0].Flags, second[1].Flags)
	}
}

func TestPackerEmptyQueue(t *testing.T) {
	var p Packer
	if got := p.NextChunks(); got != nil {
		t.Fatalf("want nil for empty queue, got %v", got)
	}
	if p.Backlog() != 0 || p.QueuedBytes() != 0 || !p.Empty() {
		t.Fatalf("empty packer accounting wrong")
	}
}

func TestPackerZeroLengthMessage(t *testing.T) {
	var p Packer
	p.Enqueue(nil)
	chunks := p.NextChunks()
	if len(chunks) != 1 || chunks[0].Flags != ChunkFirst|ChunkLast || len(chunks[0].Data) != 0 {
		t.Fatalf("zero-length message mishandled: %+v", chunks)
	}
}

func TestPackerExactlyMaxWholeMessage(t *testing.T) {
	// 1421 + 3 B framing = exactly MaxPayload: travels whole, alone.
	var p Packer
	p.Enqueue(fill(maxWhole, 1))
	chunks := p.NextChunks()
	if len(chunks) != 1 || chunks[0].Flags != ChunkFirst|ChunkLast || len(chunks[0].Data) != maxWhole {
		t.Fatalf("maxWhole message mishandled: %d chunks, flags %x, %d bytes",
			len(chunks), chunks[0].Flags, len(chunks[0].Data))
	}
	if !p.Empty() {
		t.Fatal("queue should be drained")
	}
}

func TestPackerFinalFragmentExactlyFillsBudget(t *testing.T) {
	// 2*maxWhole splits into two full-budget fragments; the second packet
	// has zero budget left, so a queued whole message cannot share it.
	var p Packer
	p.Enqueue(fill(2*maxWhole, 1))
	p.Enqueue(fill(10, 2))
	first := p.NextChunks()
	if len(first) != 1 || first[0].Flags != ChunkFirst || len(first[0].Data) != maxWhole {
		t.Fatalf("first fragment wrong: %d chunks, flags %x, %d bytes",
			len(first), first[0].Flags, len(first[0].Data))
	}
	second := p.NextChunks()
	if len(second) != 1 || second[0].Flags != ChunkLast || len(second[0].Data) != maxWhole {
		t.Fatalf("final fragment must exactly fill the packet alone: %d chunks, flags %x, %d bytes",
			len(second), second[0].Flags, len(second[0].Data))
	}
	third := p.NextChunks()
	if len(third) != 1 || third[0].Flags != ChunkFirst|ChunkLast || len(third[0].Data) != 10 {
		t.Fatalf("queued message should follow in its own packet: %+v", third)
	}
	if !p.Empty() {
		t.Fatal("queue should be drained")
	}
}

func TestPackerAccounting(t *testing.T) {
	var p Packer
	p.Enqueue(fill(100, 1))
	p.Enqueue(fill(200, 2))
	if p.Backlog() != 2 || p.QueuedBytes() != 300 {
		t.Fatalf("backlog=%d bytes=%d", p.Backlog(), p.QueuedBytes())
	}
	p.NextChunks()
	if p.Backlog() != 0 || p.QueuedBytes() != 0 {
		t.Fatalf("after drain: backlog=%d bytes=%d", p.Backlog(), p.QueuedBytes())
	}
}

func TestPacketsFor(t *testing.T) {
	cases := []struct {
		msgLen, count, want int
	}{
		{700, 2, 1},   // sawtooth peak
		{712, 2, 2},   // just over half budget
		{1400, 1, 1},  // second peak: one per packet, near-full frame
		{1421, 1, 1},  // exactly maxWhole
		{1422, 1, 2},  // just over: fragmented
		{100, 13, 1},  // 13*(103)=1339 fits
		{100, 14, 2},  // 14*(103)=1442 does not
		{10000, 1, 8}, // ceil(10000/1421)
		{100, 0, 0},
	}
	for _, c := range cases {
		if got := PacketsFor(c.msgLen, c.count); got != c.want {
			t.Errorf("PacketsFor(%d,%d) = %d, want %d", c.msgLen, c.count, got, c.want)
		}
	}
}

func TestAssemblerWholeMessages(t *testing.T) {
	a := NewAssembler()
	msg, ok := a.Add(1, Chunk{Flags: ChunkFirst | ChunkLast, Data: []byte("abc")})
	if !ok || string(msg) != "abc" {
		t.Fatalf("whole message not returned: %q %v", msg, ok)
	}
}

func TestAssemblerWholeMessageIsZeroCopy(t *testing.T) {
	// The documented fast path: an unfragmented message aliases the chunk
	// data instead of copying it.
	a := NewAssembler()
	in := []byte("abc")
	msg, ok := a.Add(1, Chunk{Flags: ChunkFirst | ChunkLast, Data: in})
	if !ok || &msg[0] != &in[0] {
		t.Fatal("whole-message fast path must return the chunk data uncopied")
	}
}

func TestAssemblerInterleavedSenders(t *testing.T) {
	a := NewAssembler()
	if _, ok := a.Add(1, Chunk{Flags: ChunkFirst, Data: []byte("aa")}); ok {
		t.Fatal("incomplete message returned")
	}
	if _, ok := a.Add(2, Chunk{Flags: ChunkFirst, Data: []byte("xx")}); ok {
		t.Fatal("incomplete message returned")
	}
	m1, ok := a.Add(1, Chunk{Flags: ChunkLast, Data: []byte("bb")})
	if !ok || string(m1) != "aabb" {
		t.Fatalf("sender 1 reassembly: %q %v", m1, ok)
	}
	m2, ok := a.Add(2, Chunk{Flags: ChunkLast, Data: []byte("yy")})
	if !ok || string(m2) != "xxyy" {
		t.Fatalf("sender 2 reassembly: %q %v", m2, ok)
	}
}

func TestAssemblerDropsOrphanContinuation(t *testing.T) {
	a := NewAssembler()
	if _, ok := a.Add(1, Chunk{Flags: ChunkLast, Data: []byte("tail")}); ok {
		t.Fatal("orphan continuation must not produce a message")
	}
	if a.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", a.Dropped)
	}
}

func TestAssemblerRestartAfterFirstOverwrites(t *testing.T) {
	a := NewAssembler()
	a.Add(1, Chunk{Flags: ChunkFirst, Data: []byte("old")})
	a.Add(1, Chunk{Flags: ChunkFirst, Data: []byte("new")})
	m, ok := a.Add(1, Chunk{Flags: ChunkLast, Data: []byte("!")})
	if !ok || string(m) != "new!" {
		t.Fatalf("restart semantics: %q %v", m, ok)
	}
}

func TestAssemblerReset(t *testing.T) {
	a := NewAssembler()
	a.Add(1, Chunk{Flags: ChunkFirst, Data: []byte("aa")})
	a.Reset()
	if _, ok := a.Add(1, Chunk{Flags: ChunkLast, Data: []byte("bb")}); ok {
		t.Fatal("reset did not clear partial state")
	}
}

// fragmentChunks splits msg into n chunks flagged as the packer flags the
// fragments of an oversized message.
func fragmentChunks(msg []byte, n int) []Chunk {
	chunks := make([]Chunk, n)
	step := (len(msg) + n - 1) / n
	for i := range chunks {
		lo, hi := min(i*step, len(msg)), min((i+1)*step, len(msg))
		chunks[i].Data = msg[lo:hi]
	}
	chunks[0].Flags |= ChunkFirst
	chunks[n-1].Flags |= ChunkLast
	return chunks
}

// TestAssemblerFragmentedMessageOwnsItsBytes: the assembler aliases
// fragments only until the message completes; the message it returns is
// its own copy, so the chunk buffers may be reused afterwards.
func TestAssemblerFragmentedMessageOwnsItsBytes(t *testing.T) {
	in := fill(10000, 5)
	want := append([]byte(nil), in...)
	a := NewAssembler()
	var msg []byte
	for _, c := range fragmentChunks(in, 8) {
		m, ok := a.Add(3, c)
		if ok {
			msg = m
		}
	}
	if !bytes.Equal(msg, want) {
		t.Fatal("fragmented message reassembled wrong")
	}
	for i := range in {
		in[i] = ^in[i]
	}
	if !bytes.Equal(msg, want) {
		t.Fatal("reassembled message changed when its fragment buffers were overwritten")
	}
}

// TestAssemblerFragmentedAllocs pins reassembly to one allocation of the
// message's exact size.
func TestAssemblerFragmentedAllocs(t *testing.T) {
	chunks := fragmentChunks(fill(10000, 9), 8)
	a := NewAssembler()
	var msg []byte
	allocs := testing.AllocsPerRun(100, func() {
		for _, c := range chunks {
			if m, ok := a.Add(3, c); ok {
				msg = m
			}
		}
	})
	if allocs != 1 {
		t.Fatalf("8-fragment message: %v allocs, want 1", allocs)
	}
	if len(msg) != 10000 || cap(msg) != 10000 {
		t.Fatalf("message len %d cap %d, want 10000/10000", len(msg), cap(msg))
	}
}

// Property: pack then reassemble returns exactly the original messages in
// order, for arbitrary message sizes (including oversized ones).
func TestQuickPackAssembleRoundTrip(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) > 40 {
			sizes = sizes[:40]
		}
		rng := rand.New(rand.NewSource(42))
		var p Packer
		var want [][]byte
		for _, s := range sizes {
			n := int(s) % 4000
			msg := make([]byte, n)
			rng.Read(msg)
			want = append(want, msg)
			p.Enqueue(append([]byte(nil), msg...))
		}
		a := NewAssembler()
		var got [][]byte
		for !p.Empty() {
			chunks := p.NextChunks()
			if chunks == nil {
				return false // must make progress
			}
			total := 0
			for _, c := range chunks {
				total += len(c.Data) + ChunkOverhead
				if m, ok := a.Add(7, c); ok {
					got = append(got, m)
				}
			}
			if total > MaxPayload {
				return false // budget violated
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: every emitted packet obeys the frame budget and whole messages
// are never fragmented.
func TestQuickPackerNeverFragmentsSmallMessages(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) > 60 {
			sizes = sizes[:60]
		}
		var p Packer
		for _, s := range sizes {
			p.Enqueue(make([]byte, int(s)%maxWhole)) // all fit whole
		}
		for !p.Empty() {
			for _, c := range p.NextChunks() {
				if c.Flags != ChunkFirst|ChunkLast {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

var _ = proto.NodeID(0)
