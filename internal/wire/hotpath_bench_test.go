package wire

import (
	"testing"

	"github.com/totem-rrp/totem/internal/proto"
)

// The BenchmarkHotPath* family measures the steady-state packet path in
// isolation. Encode into a pooled frame is 0 allocs/op. Decode allocates
// by design, because decoded packets are retained for retransmission
// while the raw frame is recycled — but only three times per packet,
// whatever its chunk count; the allocation pins in wire_test.go and
// pack_test.go (TestDecodeDataAllocs, TestAssemblerFragmentedAllocs) fail
// by name if that regresses.

func hotPathPacket(msgLen int) *DataPacket {
	return &DataPacket{
		Ring:   proto.RingID{Rep: 1, Epoch: 7},
		Sender: 1,
		Seq:    42,
		Chunks: []Chunk{{Flags: ChunkFirst | ChunkLast, Data: fill(msgLen, 3)}},
	}
}

func BenchmarkHotPathEncode(b *testing.B) {
	pkt := hotPathPacket(1400)
	b.SetBytes(1400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt.Seq++
		buf, err := pkt.AppendEncode(GetFrame())
		if err != nil {
			b.Fatal(err)
		}
		PutFrame(buf)
	}
}

func BenchmarkHotPathDecode(b *testing.B) {
	pkt := hotPathPacket(1400)
	data, err := pkt.Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeData(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotPathDecodePacked decodes the packet shape of the
// small-message end of Figure 6: twelve 100 B messages packed into one
// packet, where a per-chunk copy would cost twelve allocations.
func BenchmarkHotPathDecodePacked(b *testing.B) {
	data, err := packedPacket(12, 100).Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeData(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHotPathFramePool(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PutFrame(GetFrame())
	}
}

func BenchmarkHotPathPacker(b *testing.B) {
	// Steady state of the paper's sawtooth peak: two 700 B messages per
	// packet. The message buffers are recycled by the benchmark because
	// Enqueue transfers ownership.
	msgs := [2][]byte{fill(700, 1), fill(700, 2)}
	var p Packer
	b.SetBytes(1400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Enqueue(msgs[0])
		p.Enqueue(msgs[1])
		for !p.Empty() {
			if p.NextChunks() == nil {
				b.Fatal("packer stalled")
			}
		}
	}
}

func BenchmarkHotPathAssembler(b *testing.B) {
	a := NewAssembler()
	c := Chunk{Flags: ChunkFirst | ChunkLast, Data: fill(700, 1)}
	b.SetBytes(700)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := a.Add(1, c); !ok {
			b.Fatal("whole chunk must complete a message")
		}
	}
}

// BenchmarkHotPathAssemblerFragmented reassembles the Figure 6 10 000 B
// message from its eight fragments: one exact-size copy per message.
func BenchmarkHotPathAssemblerFragmented(b *testing.B) {
	a := NewAssembler()
	chunks := fragmentChunks(fill(10000, 1), 8)
	b.SetBytes(10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range chunks {
			a.Add(1, c)
		}
	}
}
