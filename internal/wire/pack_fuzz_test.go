package wire

import (
	"bytes"
	"encoding/binary"
	"testing"

	"github.com/totem-rrp/totem/internal/proto"
)

// Native fuzz targets for the message-packing layer: the Packer's
// fragmentation and the Assembler's reassembly are the two halves of the
// paper's §8 packing algorithm, and every byte the ring orders passes
// through them.

// packerSeeds mirrors the payload-size population the torture harness
// drives through the stack (its load generator submits 64..364-byte
// payloads shaped "s<seed>/<node>/<n>|..."), plus the fragmentation
// boundaries.
func packerSeeds(f *testing.F) {
	f.Helper()
	sizes := func(ns ...int) []byte {
		var b []byte
		for _, n := range ns {
			b = binary.LittleEndian.AppendUint16(b, uint16(n))
		}
		return b
	}
	f.Add(sizes(64))
	f.Add(sizes(64, 200, 364))                     // torture load population
	f.Add(sizes(364, 364, 364, 364))               // several per packet
	f.Add(sizes(maxWhole-1, maxWhole, maxWhole+1)) // split boundary
	f.Add(sizes(MaxPayload, MaxPayload+1))
	f.Add(sizes(3*MaxPayload + 17))   // multi-packet fragmentation
	f.Add(sizes(1, maxWhole+5, 1, 1)) // fragment then small tail
	f.Add(sizes())                    // empty queue
	f.Add(sizes(0, 0, 64))            // zero-length messages
}

// FuzzPackerAssembler drives arbitrary message-size sequences through
// Enqueue -> NextChunks -> Assembler.Add and demands perfect reassembly:
// every message comes back whole, in order, byte for byte, with no drops,
// and every emitted packet respects the MaxPayload budget.
func FuzzPackerAssembler(f *testing.F) {
	packerSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		const (
			maxMsgs = 24
			maxLen  = 4 * MaxPayload
			sender  = proto.NodeID(7)
		)
		var msgs [][]byte
		for i := 0; i+1 < len(data) && len(msgs) < maxMsgs; i += 2 {
			n := int(binary.LittleEndian.Uint16(data[i:])) % (maxLen + 1)
			msg := make([]byte, n)
			for j := range msg {
				msg[j] = byte(len(msgs)*31 + j)
			}
			msgs = append(msgs, msg)
		}

		p := &Packer{}
		total := 0
		for _, m := range msgs {
			p.Enqueue(append([]byte(nil), m...))
			total += len(m)
		}
		if p.Backlog() != len(msgs) || p.QueuedBytes() != total {
			t.Fatalf("after enqueue: backlog %d queued %d, want %d/%d",
				p.Backlog(), p.QueuedBytes(), len(msgs), total)
		}

		a := NewAssembler()
		var got [][]byte
		// Each NextChunks call must make progress; total+len(msgs) packets
		// is a generous upper bound, so exceeding it means livelock.
		for i := 0; !p.Empty(); i++ {
			if i > total+len(msgs)+1 {
				t.Fatalf("packer livelock: %d packets and still %d queued", i, p.Backlog())
			}
			chunks := p.NextChunks()
			if chunks == nil {
				t.Fatalf("NextChunks returned nil with %d messages queued", p.Backlog())
			}
			budget := 0
			for _, c := range chunks {
				budget += len(c.Data) + ChunkOverhead
			}
			if budget > MaxPayload {
				t.Fatalf("packet holds %d bytes, budget %d", budget, MaxPayload)
			}
			for _, c := range chunks {
				if m, ok := a.Add(sender, c); ok {
					got = append(got, append([]byte(nil), m...))
				}
			}
		}
		if p.NextChunks() != nil {
			t.Fatal("NextChunks returned chunks from an empty queue")
		}
		if p.QueuedBytes() != 0 {
			t.Fatalf("drained packer still reports %d queued bytes", p.QueuedBytes())
		}
		if a.Dropped != 0 {
			t.Fatalf("assembler dropped %d chunks of a clean in-order stream", a.Dropped)
		}
		if len(got) != len(msgs) {
			t.Fatalf("reassembled %d messages, submitted %d", len(got), len(msgs))
		}
		for i := range msgs {
			if !bytes.Equal(got[i], msgs[i]) {
				t.Fatalf("message %d corrupted: %d bytes in, %d out", i, len(msgs[i]), len(got[i]))
			}
		}
	})
}

// FuzzAssemblerStream feeds the Assembler an arbitrary — including
// protocol-violating — chunk stream across several senders. It must never
// panic, must return exactly what a reference concatenation of each
// sender's fragments returns (and leave it unchanged by later chunks), and
// account for every orphan continuation and abandoned prefix in Dropped.
func FuzzAssemblerStream(f *testing.F) {
	// flags byte, length byte, payload — repeated.
	f.Add([]byte{byte(ChunkFirst | ChunkLast), 3, 'a', 'b', 'c'})
	f.Add([]byte{byte(ChunkFirst), 2, 'x', 'y', byte(ChunkLast), 1, 'z'})
	f.Add([]byte{0, 4, 1, 2, 3, 4}) // orphan continuation
	f.Add([]byte{byte(ChunkFirst), 1, 'q', byte(ChunkFirst | ChunkLast), 1, 'r'})
	f.Fuzz(func(t *testing.T, data []byte) {
		a := NewAssembler()
		// The reference: each sender's partial as a plain concatenation.
		ref := make(map[proto.NodeID][]byte)
		var got, want [][]byte
		drops := 0
		for i := 0; i+1 < len(data); {
			flags := data[i] & (ChunkFirst | ChunkLast)
			n := int(data[i+1])
			i += 2
			if n > len(data)-i {
				n = len(data) - i
			}
			sender := proto.NodeID(1 + n%3)
			chunk := data[i : i+n]
			m, ok := a.Add(sender, Chunk{Flags: flags, Data: chunk})
			i += n

			partial, inProgress := ref[sender]
			var refMsg []byte
			refOK := false
			switch {
			case flags&ChunkFirst != 0:
				if inProgress {
					drops++
				}
				delete(ref, sender)
				if flags&ChunkLast != 0 {
					refMsg, refOK = chunk, true
				} else {
					ref[sender] = append([]byte{}, chunk...)
				}
			case !inProgress:
				drops++
			case flags&ChunkLast != 0:
				refMsg, refOK = append(partial, chunk...), true
				delete(ref, sender)
			default:
				ref[sender] = append(partial, chunk...)
			}

			if ok != refOK {
				t.Fatalf("chunk at %d (flags %d, sender %v): completed %v, reference %v", i-n, flags, sender, ok, refOK)
			}
			if !ok {
				if m != nil {
					t.Fatal("incomplete Add returned a message")
				}
				continue
			}
			if !bytes.Equal(m, refMsg) {
				t.Fatalf("message %d: %q, reference %q", len(got), m, refMsg)
			}
			got = append(got, m)
			want = append(want, append([]byte{}, refMsg...))
		}
		for k := range got {
			if !bytes.Equal(got[k], want[k]) {
				t.Fatalf("message %d changed after later chunks: %q, want %q", k, got[k], want[k])
			}
		}
		if a.Dropped != drops {
			t.Fatalf("Dropped = %d, reference counts %d", a.Dropped, drops)
		}
		a.Reset()
		if m, ok := a.Add(1, Chunk{Flags: 0, Data: []byte("tail")}); ok || m != nil {
			t.Fatal("continuation accepted after Reset")
		}
	})
}

// FuzzMixedLanes drives arbitrary interleavings of interactive and bulk
// enqueues — with an optional mid-stream configuration change (Assembler
// Reset plus Packer Rewind) — and demands the two-lane contract: FIFO
// byte-exact reassembly within each lane, interactive chunks packed ahead
// of bulk in every packet, nothing dropped, and no livelock.
func FuzzMixedLanes(f *testing.F) {
	seed := func(resetAt byte, ops ...uint16) []byte {
		b := []byte{resetAt}
		for _, op := range ops {
			b = binary.LittleEndian.AppendUint16(b, op)
		}
		return b
	}
	lane := func(bulk bool, n int) uint16 {
		v := uint16(n) << 1
		if bulk {
			v |= 1
		}
		return v
	}
	f.Add(seed(255, lane(false, 200), lane(true, 20000), lane(false, 64)))
	f.Add(seed(2, lane(true, 3*MaxPayload), lane(false, 100))) // reset mid-fragment
	f.Add(seed(0, lane(true, 1), lane(true, 0), lane(false, maxWhole)))
	f.Add(seed(255, lane(true, 8192), lane(true, 8192), lane(true, 8192)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		// data[0] < 128 schedules one configuration change at that packet
		// index; the ops are (size<<1 | bulkLane) little-endian pairs.
		resetAt := -1
		if data[0] < 128 {
			resetAt = int(data[0]) % 16
		}
		const maxMsgs = 24
		var p Packer
		a := NewAssembler()
		var wantI, wantB, gotI, gotB [][]byte
		msgs := 0
		for i := 1; i+1 < len(data) && msgs < maxMsgs; i += 2 {
			v := binary.LittleEndian.Uint16(data[i:])
			n := int(v>>1) % (3*MaxPayload + 1)
			m := make([]byte, n)
			for j := range m {
				m[j] = byte(msgs*31 + j)
			}
			if v&1 == 1 {
				wantB = append(wantB, m)
				p.EnqueueBulk(append([]byte(nil), m...))
			} else {
				wantI = append(wantI, m)
				p.Enqueue(append([]byte(nil), m...))
			}
			msgs++
		}

		for pkt := 0; !p.Empty(); pkt++ {
			if pkt > 100000 {
				t.Fatalf("livelock: %d packets and still %d+%d queued", pkt, p.Backlog(), p.BulkBacklog())
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
				t.Fatalf("no progress with %d+%d messages queued", p.Backlog(), p.BulkBacklog())
			}
			budget, sawBulk := 0, false
			for _, c := range chunks {
				budget += len(c.Data) + ChunkOverhead
				if c.Flags&ChunkBulk != 0 {
					sawBulk = true
				} else if sawBulk {
					t.Fatal("interactive chunk packed behind a bulk chunk")
				}
				if m, ok := a.Add(3, c); ok {
					cp := append([]byte(nil), m...)
					if c.Flags&ChunkBulk != 0 {
						gotB = append(gotB, cp)
					} else {
						gotI = append(gotI, cp)
					}
				}
			}
			if budget > MaxPayload {
				t.Fatalf("packet holds %d bytes, budget %d", budget, MaxPayload)
			}
		}
		check := func(lane string, got, want [][]byte) {
			if len(got) != len(want) {
				t.Fatalf("%s lane delivered %d of %d messages", lane, len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("%s lane message %d not FIFO/byte-exact", lane, i)
				}
			}
		}
		check("interactive", gotI, wantI)
		check("bulk", gotB, wantB)
		if a.Dropped != 0 {
			t.Fatalf("assembler dropped %d chunks of a clean stream", a.Dropped)
		}
	})
}
