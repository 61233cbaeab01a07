package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/totem-rrp/totem/internal/proto"
)

func TestDataPacketRoundTrip(t *testing.T) {
	p := &DataPacket{
		Ring:   proto.RingID{Rep: 3, Epoch: 17},
		Sender: 9,
		Seq:    4242,
		Flags:  FlagRetrans,
		Chunks: []Chunk{
			{Flags: ChunkFirst | ChunkLast, Data: []byte("hello")},
			{Flags: ChunkFirst, Data: []byte("frag-start")},
		},
	}
	data, err := p.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeData(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, p)
	}
}

func TestDataPacketEmptyChunkData(t *testing.T) {
	p := &DataPacket{
		Ring:   proto.RingID{Rep: 1, Epoch: 1},
		Sender: 1,
		Seq:    1,
		Chunks: []Chunk{{Flags: ChunkFirst | ChunkLast, Data: []byte{}}},
	}
	data, err := p.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeData(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got.Chunks) != 1 || len(got.Chunks[0].Data) != 0 {
		t.Fatalf("want one empty chunk, got %+v", got.Chunks)
	}
}

func TestDataPacketRejectsNoChunks(t *testing.T) {
	p := &DataPacket{Ring: proto.RingID{Rep: 1, Epoch: 1}, Sender: 1, Seq: 1}
	if _, err := p.Encode(); !errors.Is(err, ErrMalformed) {
		t.Fatalf("want ErrMalformed, got %v", err)
	}
}

func TestDataPacketRejectsOversizedPayload(t *testing.T) {
	p := &DataPacket{
		Ring:   proto.RingID{Rep: 1, Epoch: 1},
		Sender: 1,
		Seq:    1,
		Chunks: []Chunk{{Flags: ChunkFirst | ChunkLast, Data: make([]byte, MaxPayload+1)}},
	}
	if _, err := p.Encode(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}
}

func TestDataPacketRejectsCombinedOversize(t *testing.T) {
	half := make([]byte, MaxPayload/2)
	p := &DataPacket{
		Ring:   proto.RingID{Rep: 1, Epoch: 1},
		Sender: 1,
		Seq:    1,
		Chunks: []Chunk{
			{Flags: ChunkFirst | ChunkLast, Data: half},
			{Flags: ChunkFirst | ChunkLast, Data: half},
		},
	}
	// Two halves plus framing exceed the budget.
	if _, err := p.Encode(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}
}

func TestTokenRoundTrip(t *testing.T) {
	tok := &Token{
		Ring:     proto.RingID{Rep: 2, Epoch: 8},
		Seq:      1000,
		Rotation: 55,
		ARU:      990,
		ARUID:    4,
		FCC:      17,
		Backlog:  3,
		RTR:      []uint32{991, 993, 999},
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
}

func TestTokenRoundTripEmptyRTR(t *testing.T) {
	tok := &Token{Ring: proto.RingID{Rep: 1, Epoch: 1}, Seq: 5}
	data, err := tok.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeToken(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.RTR != nil {
		t.Fatalf("want nil RTR, got %v", got.RTR)
	}
}

func TestTokenRejectsOversizedRTR(t *testing.T) {
	tok := &Token{Ring: proto.RingID{Rep: 1, Epoch: 1}, RTR: make([]uint32, MaxRTR+1)}
	if _, err := tok.Encode(); !errors.Is(err, ErrMalformed) {
		t.Fatalf("want ErrMalformed, got %v", err)
	}
}

func TestPeekTokenSeq(t *testing.T) {
	tok := &Token{Ring: proto.RingID{Rep: 1, Epoch: 1}, Seq: 77, Rotation: 5}
	data, err := tok.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	seq, rot, err := PeekTokenSeq(data)
	if err != nil {
		t.Fatalf("peek: %v", err)
	}
	if seq != 77 || rot != 5 {
		t.Fatalf("peek = (%d,%d), want (77,5)", seq, rot)
	}
}

func TestPeekTokenSeqRejectsData(t *testing.T) {
	p := &DataPacket{
		Ring: proto.RingID{Rep: 1, Epoch: 1}, Sender: 1, Seq: 1,
		Chunks: []Chunk{{Flags: ChunkFirst | ChunkLast, Data: []byte("x")}},
	}
	data, err := p.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if _, _, err := PeekTokenSeq(data); !errors.Is(err, ErrMalformed) {
		t.Fatalf("want ErrMalformed, got %v", err)
	}
}

func TestJoinRoundTrip(t *testing.T) {
	j := &JoinPacket{
		Sender:  7,
		RingSeq: 12,
		ProcSet: []proto.NodeID{1, 2, 7},
		FailSet: []proto.NodeID{5},
	}
	data, err := j.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeJoin(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(j, got) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, j)
	}
}

func TestJoinRoundTripEmptySets(t *testing.T) {
	j := &JoinPacket{Sender: 7, RingSeq: 12}
	data, err := j.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeJoin(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.ProcSet != nil || got.FailSet != nil {
		t.Fatalf("want nil sets, got %+v", got)
	}
}

func TestCommitRoundTrip(t *testing.T) {
	c := &CommitToken{
		Ring: proto.RingID{Rep: 1, Epoch: 20},
		Members: []CommitEntry{
			{ID: 1, OldRing: proto.RingID{Rep: 1, Epoch: 16}, MyAru: 100, HighSeq: 120, Visits: 1},
			{ID: 4, OldRing: proto.RingID{Rep: 4, Epoch: 18}, MyAru: 7, HighSeq: 7, Visits: 0},
		},
	}
	data, err := c.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeCommit(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(c, got) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, c)
	}
}

func TestCommitRejectsEmpty(t *testing.T) {
	c := &CommitToken{Ring: proto.RingID{Rep: 1, Epoch: 1}}
	if _, err := c.Encode(); !errors.Is(err, ErrMalformed) {
		t.Fatalf("want ErrMalformed, got %v", err)
	}
}

func TestPeekKindAndRing(t *testing.T) {
	tok := &Token{Ring: proto.RingID{Rep: 9, Epoch: 3}}
	data, err := tok.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	k, err := PeekKind(data)
	if err != nil || k != KindToken {
		t.Fatalf("PeekKind = %v, %v", k, err)
	}
	ring, err := PeekRing(data)
	if err != nil || ring != (proto.RingID{Rep: 9, Epoch: 3}) {
		t.Fatalf("PeekRing = %v, %v", ring, err)
	}
}

func TestDecodeRejectsGarbageHeader(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0x54},
		bytes.Repeat([]byte{0xff}, 64),
		append([]byte{0x54, 0x4d, version, 99}, make([]byte, 32)...),         // bad kind
		append([]byte{0x54, 0x4d, 42, uint8(KindData)}, make([]byte, 32)...), // bad version
	}
	for i, data := range cases {
		if _, err := DecodeData(data); err == nil {
			t.Errorf("case %d: DecodeData accepted garbage", i)
		}
		if _, err := DecodeToken(data); err == nil {
			t.Errorf("case %d: DecodeToken accepted garbage", i)
		}
		if _, err := DecodeJoin(data); err == nil {
			t.Errorf("case %d: DecodeJoin accepted garbage", i)
		}
		if _, err := DecodeCommit(data); err == nil {
			t.Errorf("case %d: DecodeCommit accepted garbage", i)
		}
	}
}

func TestDecodeRejectsTruncatedEncodings(t *testing.T) {
	p := &DataPacket{
		Ring: proto.RingID{Rep: 1, Epoch: 1}, Sender: 2, Seq: 3,
		Chunks: []Chunk{{Flags: ChunkFirst | ChunkLast, Data: []byte("payload")}},
	}
	data, err := p.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	for cut := 1; cut < len(data); cut++ {
		if _, err := DecodeData(data[:cut]); err == nil {
			t.Fatalf("accepted truncation at %d", cut)
		}
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	p := &DataPacket{
		Ring: proto.RingID{Rep: 1, Epoch: 1}, Sender: 2, Seq: 3,
		Chunks: []Chunk{{Flags: ChunkFirst | ChunkLast, Data: []byte("payload")}},
	}
	data, err := p.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if _, err := DecodeData(append(data, 0)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("want ErrMalformed, got %v", err)
	}
}

// Property: any DataPacket within limits round-trips exactly.
func TestQuickDataRoundTrip(t *testing.T) {
	f := func(rep, sender uint32, epoch, seq uint32, flags uint8, raw [][]byte) bool {
		if len(raw) == 0 {
			raw = [][]byte{{0x1}}
		}
		if len(raw) > 8 {
			raw = raw[:8]
		}
		total := 0
		chunks := make([]Chunk, 0, len(raw))
		for _, d := range raw {
			if len(d) > 128 {
				d = d[:128]
			}
			total += len(d) + ChunkOverhead
			if total > MaxPayload {
				break
			}
			chunks = append(chunks, Chunk{Flags: ChunkFirst | ChunkLast, Data: append([]byte(nil), d...)})
		}
		if len(chunks) == 0 {
			return true
		}
		p := &DataPacket{
			Ring:   proto.RingID{Rep: proto.NodeID(rep), Epoch: epoch},
			Sender: proto.NodeID(sender),
			Seq:    seq,
			Flags:  flags,
			Chunks: chunks,
		}
		data, err := p.Encode()
		if err != nil {
			return false
		}
		got, err := DecodeData(data)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(p, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: any Token within limits round-trips exactly.
func TestQuickTokenRoundTrip(t *testing.T) {
	f := func(rep, epoch, seq, rot, aru, aruid, fcc, backlog uint32, rtr []uint32) bool {
		if len(rtr) > MaxRTR {
			rtr = rtr[:MaxRTR]
		}
		if len(rtr) == 0 {
			rtr = nil
		}
		tok := &Token{
			Ring:     proto.RingID{Rep: proto.NodeID(rep), Epoch: epoch},
			Seq:      seq,
			Rotation: rot,
			ARU:      aru,
			ARUID:    proto.NodeID(aruid),
			FCC:      fcc,
			Backlog:  backlog,
			RTR:      rtr,
		}
		data, err := tok.Encode()
		if err != nil {
			return false
		}
		got, err := DecodeToken(data)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(tok, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: decoders never panic and never accept random noise as valid
// unless it happens to be a perfect encoding (vanishingly unlikely).
func TestQuickDecodersSurviveNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		n := rng.Intn(200)
		data := make([]byte, n)
		rng.Read(data)
		DecodeData(data)
		DecodeToken(data)
		DecodeJoin(data)
		DecodeCommit(data)
		PeekKind(data)
		PeekRing(data)
		PeekTokenSeq(data)
	}
}

// Fuzz-by-mutation: take valid encodings, flip bytes, ensure no panics.
func TestQuickDecodersSurviveMutation(t *testing.T) {
	tok := &Token{Ring: proto.RingID{Rep: 1, Epoch: 1}, Seq: 9, RTR: []uint32{1, 2, 3}}
	tdata, err := tok.Encode()
	if err != nil {
		t.Fatal(err)
	}
	p := &DataPacket{
		Ring: proto.RingID{Rep: 1, Epoch: 1}, Sender: 2, Seq: 3,
		Chunks: []Chunk{{Flags: ChunkFirst | ChunkLast, Data: []byte("abcdef")}},
	}
	pdata, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		for _, orig := range [][]byte{tdata, pdata} {
			m := append([]byte(nil), orig...)
			m[rng.Intn(len(m))] ^= byte(1 << rng.Intn(8))
			DecodeToken(m)
			DecodeData(m)
			DecodeJoin(m)
			DecodeCommit(m)
		}
	}
}

func TestFrameBudgetConstants(t *testing.T) {
	if MaxPayload != 1424 {
		t.Fatalf("MaxPayload = %d, want 1424 (paper §8)", MaxPayload)
	}
	if MaxFrame-FrameOverhead != MaxPayload {
		t.Fatalf("budget arithmetic inconsistent")
	}
}

// packedPacket is n whole messages of size bytes packed into one packet:
// the shape of every packet at the small-message end of Figure 6.
func packedPacket(n, size int) *DataPacket {
	p := &DataPacket{Ring: proto.RingID{Rep: 1, Epoch: 7}, Sender: 1, Seq: 42}
	for i := 0; i < n; i++ {
		p.Chunks = append(p.Chunks, Chunk{Flags: ChunkFirst | ChunkLast, Data: fill(size, byte(i))})
	}
	return p
}

// TestDecodeDataDoesNotAliasFrame pins the receive-side ownership rule:
// the driver recycles the frame as soon as OnPacket returns, so nothing a
// decoded packet holds may point into it — and, since the chunks share
// one private buffer, growing one chunk must not write into the next.
func TestDecodeDataDoesNotAliasFrame(t *testing.T) {
	p := packedPacket(12, 100)
	frame, err := p.AppendEncode(GetFrame())
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeData(frame)
	if err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		frame[i] = ^frame[i]
	}
	PutFrame(frame)
	_ = append(got.Chunks[0].Data, 0xEE)
	for i, c := range got.Chunks {
		if !bytes.Equal(c.Data, p.Chunks[i].Data) {
			t.Fatalf("chunk %d changed after the frame was overwritten", i)
		}
		if cap(c.Data) != len(c.Data) {
			t.Fatalf("chunk %d: cap %d > len %d lets an append overwrite its neighbour", i, cap(c.Data), len(c.Data))
		}
	}
}

// TestDecodeDataAllocs pins the one-copy decode: the packet, its chunk
// slice and one payload buffer, whatever the chunk count.
func TestDecodeDataAllocs(t *testing.T) {
	data, err := packedPacket(12, 100).Encode()
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeData(data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 3 {
		t.Fatalf("DecodeData of a 12-chunk packet: %v allocs, want 3", allocs)
	}
}

func TestPeekDataSeq(t *testing.T) {
	p := packedPacket(2, 10)
	data, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	ring, seq, err := PeekDataSeq(data)
	if err != nil || ring != p.Ring || seq != p.Seq {
		t.Fatalf("PeekDataSeq = %v, %d, %v; want %v, %d", ring, seq, err, p.Ring, p.Seq)
	}
	tok, err := (&Token{Ring: p.Ring, Seq: 5}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := PeekDataSeq(tok); !errors.Is(err, ErrMalformed) {
		t.Fatalf("token: err = %v, want ErrMalformed", err)
	}
	if _, _, err := PeekDataSeq(data[:headerLen+7]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated: err = %v, want ErrTruncated", err)
	}
}
