package wire

import "github.com/totem-rrp/totem/internal/proto"

// Packer lanes. The interactive lane carries ordinary Submit traffic and
// keeps the paper's packing semantics exactly; the bulk lane carries
// chunked large-transfer traffic, which is packed as a byte stream into
// whatever budget the interactive lane leaves over.
const (
	// LaneInteractive is the default lane (paper §8 semantics).
	LaneInteractive = 0
	// LaneBulk is the rate-limited large-transfer lane.
	LaneBulk = 1
	// PackerLanes is the number of lanes.
	PackerLanes = 2
)

// laneQueue is one lane's send queue.
type laneQueue struct {
	pending    [][]byte
	fragOffset int // bytes of pending[0] already emitted
	queuedByte int
}

// Packer implements the Totem message-packing algorithm (paper §8),
// extended with a second, lower-priority bulk lane: all queued application
// messages that fit are placed into a single packet of at most MaxPayload
// bytes; a message longer than the payload budget is split across multiple
// packets. Interactive messages that fit whole are never split, which is
// what produces the characteristic throughput peaks at 1424/k message
// sizes. Interactive chunks fill each packet first; bulk chunks stream
// into the remaining budget and — unlike interactive fragments — may begin
// mid-packet, so bulk wastes none of the space interactive traffic leaves
// over.
//
// Packer is a pure data structure with no locking; the SRP machine owns it.
type Packer struct {
	lane [PackerLanes]laneQueue
	// finished collects fully-emitted bulk messages for buffer recycling
	// when collectFinished is set (the SRP machine reuses the chunk
	// envelope buffers once the packets that carried them are pruned).
	finished        [][]byte
	collectFinished bool
}

// Enqueue appends an application message to the interactive send queue.
// The caller must not reuse msg afterwards.
func (p *Packer) Enqueue(msg []byte) {
	p.lane[LaneInteractive].pending = append(p.lane[LaneInteractive].pending, msg)
	p.lane[LaneInteractive].queuedByte += len(msg)
}

// EnqueueBulk appends a message to the bulk lane. The caller must not
// reuse msg afterwards (with CollectFinished it gets the buffer back via
// TakeFinishedBulk once the message has been fully emitted).
func (p *Packer) EnqueueBulk(msg []byte) {
	p.lane[LaneBulk].pending = append(p.lane[LaneBulk].pending, msg)
	p.lane[LaneBulk].queuedByte += len(msg)
}

// Backlog returns the number of queued (possibly partially sent)
// interactive messages. Bulk messages are counted by BulkBacklog: the two
// lanes are flow-controlled independently.
func (p *Packer) Backlog() int { return len(p.lane[LaneInteractive].pending) }

// BulkBacklog returns the number of queued (possibly partially sent) bulk
// messages.
func (p *Packer) BulkBacklog() int { return len(p.lane[LaneBulk].pending) }

// QueuedBytes returns the number of not-yet-emitted payload bytes across
// both lanes.
func (p *Packer) QueuedBytes() int {
	total := 0
	for i := range p.lane {
		total += p.lane[i].queuedByte - p.lane[i].fragOffset
	}
	return total
}

// Empty reports whether nothing remains to send on either lane.
func (p *Packer) Empty() bool {
	return len(p.lane[LaneInteractive].pending) == 0 && len(p.lane[LaneBulk].pending) == 0
}

// CollectFinished enables collection of fully-emitted bulk message buffers
// for recycling; drain them with TakeFinishedBulk after every packet, or
// the list grows without bound.
func (p *Packer) CollectFinished(on bool) { p.collectFinished = on }

// TakeFinishedBulk returns the bulk message buffers fully emitted since
// the last call and resets the list. Only meaningful with CollectFinished.
func (p *Packer) TakeFinishedBulk() [][]byte {
	out := p.finished
	p.finished = nil
	return out
}

// maxWhole is the largest message that can travel unfragmented.
const maxWhole = MaxPayload - ChunkOverhead

// NextChunks fills one packet's worth of chunks from both lanes, honouring
// the packing rules above. It returns nil when both queues are empty.
func (p *Packer) NextChunks() []Chunk { return p.nextChunks(MaxPayload, true) }

// NextChunksInteractive fills one packet from the interactive lane only,
// leaving the bulk lane untouched. The SRP uses it once a token visit's
// bulk budget is spent.
func (p *Packer) NextChunksInteractive() []Chunk { return p.nextChunks(MaxPayload, false) }

// nextChunks is the budget-parameterised core of NextChunks; tests drive
// it with tiny budgets to audit the boundary arithmetic exhaustively. The
// invariants, regardless of budget (which must exceed ChunkOverhead):
// every chunk's framed size fits the remaining budget, no continuation
// chunk is ever empty (a fragment boundary landing exactly on the budget
// closes the packet instead of emitting a zero-byte chunk), and at most
// MaxChunks chunks are emitted per packet (the encoder's hard cap, which
// tiny messages would otherwise overflow).
func (p *Packer) nextChunks(budget int, allowBulk bool) []Chunk {
	var chunks []Chunk
	full := budget
	it := &p.lane[LaneInteractive]
interactive:
	for len(it.pending) > 0 && budget > ChunkOverhead && len(chunks) < MaxChunks {
		head := it.pending[0]
		switch {
		case it.fragOffset > 0:
			// Continue a fragmented message.
			rem := len(head) - it.fragOffset
			take := min(rem, budget-ChunkOverhead)
			var flags uint8
			if take == rem {
				flags |= ChunkLast
			}
			chunks = append(chunks, Chunk{Flags: flags, Data: head[it.fragOffset : it.fragOffset+take]})
			it.fragOffset += take
			budget -= take + ChunkOverhead
			if it.fragOffset == len(head) {
				p.popHead(LaneInteractive)
			}
		case len(head)+ChunkOverhead <= budget:
			// Whole message fits.
			chunks = append(chunks, Chunk{Flags: ChunkFirst | ChunkLast, Data: head})
			budget -= len(head) + ChunkOverhead
			p.popHead(LaneInteractive)
		case len(head)+ChunkOverhead > full && len(chunks) == 0:
			// Oversized message (cannot fit whole in any packet): begin
			// fragmenting in a fresh packet.
			take := budget - ChunkOverhead
			chunks = append(chunks, Chunk{Flags: ChunkFirst, Data: head[:take]})
			it.fragOffset = take
			budget = 0
		default:
			// Fits in a later packet whole; leave the rest of this one to
			// the bulk lane.
			break interactive
		}
	}
	if !allowBulk {
		return chunks
	}
	// Bulk fill: the bulk lane is a byte stream with message framing. It
	// has no fresh-packet rule — a bulk message may start fragmenting in
	// the space an interactive packet leaves over, trading the interactive
	// lane's never-split guarantee for zero wasted budget.
	b := &p.lane[LaneBulk]
	for len(b.pending) > 0 && budget > ChunkOverhead && len(chunks) < MaxChunks {
		head := b.pending[0]
		rem := len(head) - b.fragOffset
		take := min(rem, budget-ChunkOverhead)
		flags := ChunkBulk
		if b.fragOffset == 0 {
			flags |= ChunkFirst
		}
		if take == rem {
			flags |= ChunkLast
		}
		chunks = append(chunks, Chunk{Flags: flags, Data: head[b.fragOffset : b.fragOffset+take]})
		b.fragOffset += take
		budget -= take + ChunkOverhead
		if b.fragOffset == len(head) {
			p.popHead(LaneBulk)
		}
	}
	return chunks
}

func (p *Packer) popHead(lane int) {
	q := &p.lane[lane]
	head := q.pending[0]
	q.queuedByte -= len(head)
	if lane == LaneBulk && p.collectFinished {
		p.finished = append(p.finished, head)
	}
	q.pending[0] = nil
	q.pending = q.pending[1:]
	q.fragOffset = 0
	if len(q.pending) == 0 {
		q.pending = nil
	}
}

// Rewind resets each lane's fragment cursor so a partially-emitted head
// message will be re-emitted from its start. The SRP calls it when a new
// ring's sequence space begins: fragments already broadcast on the
// abandoned ring can never be completed there (reassembly state is scoped
// to a ring), so continuing from the cursor would send a continuation
// chunk with no start — every receiver would drop the remainder and the
// message would vanish. Restarting it whole on the new ring delivers it
// exactly once (the old ring's partial prefix completes nowhere).
func (p *Packer) Rewind() {
	for i := range p.lane {
		p.lane[i].fragOffset = 0
	}
}

// PacketsFor returns how many packets count interactive messages of
// msgLen bytes occupy when flushed. Used by flow-control backlog
// accounting and by the benchmark harness's analytic checks; it is exact
// for a uniform interactive queue and differentially tested against
// NextChunks.
func PacketsFor(msgLen, count int) int {
	if count == 0 {
		return 0
	}
	if msgLen+ChunkOverhead <= MaxPayload {
		perPacket := MaxPayload / (msgLen + ChunkOverhead)
		// The encoder caps a packet at MaxChunks chunks, so tiny messages
		// pack out of chunk slots before they pack out of bytes.
		if perPacket > MaxChunks {
			perPacket = MaxChunks
		}
		return (count + perPacket - 1) / perPacket
	}
	// Fragmented: each message takes ceil(len/budget) packets. This is
	// exact, not conservative: an interactive fragment may only begin in a
	// fresh packet, so with a uniform queue of oversized messages the final
	// fragment never shares its packet with the next message's start (the
	// bulk lane, which does share, is modelled by PacketsForBulk).
	per := (msgLen + maxWhole - 1) / maxWhole
	return per * count
}

// PacketsForBulk returns how many packets count bulk messages of msgLen
// bytes occupy when flushed with no competing interactive traffic. The
// bulk lane streams: a message's final fragment shares its packet with the
// next message's start, so the model mirrors nextChunks' loop exactly and
// is differentially tested against it.
func PacketsForBulk(msgLen, count int) int {
	if count == 0 {
		return 0
	}
	packets, budget, chunksInPkt := 0, 0, 0
	for i := 0; i < count; i++ {
		rem := msgLen
		for {
			if budget <= ChunkOverhead || chunksInPkt >= MaxChunks {
				packets++
				budget = MaxPayload
				chunksInPkt = 0
			}
			take := min(rem, budget-ChunkOverhead)
			budget -= take + ChunkOverhead
			chunksInPkt++
			rem -= take
			if rem == 0 {
				break
			}
		}
	}
	return packets
}

// asmKey scopes reassembly state: the total order guarantees chunks from
// one sender arrive in the order they were packed, but the two lanes
// interleave freely, so each (sender, lane) pair needs its own partial.
type asmKey struct {
	sender proto.NodeID
	bulk   bool
}

// Assembler reassembles chunk streams back into application messages, one
// partial message per sender and lane.
type Assembler struct {
	partial map[asmKey]*fragments
	// free recycles fragment lists of completed or abandoned messages, so a
	// steady stream of fragmented messages allocates only the messages.
	free []*fragments
	// Dropped counts reassembly anomalies: a continuation without a start
	// (legitimate when joining mid-stream after a configuration change) and
	// a partially-assembled prefix abandoned because a fresh ChunkFirst
	// arrived mid-reassembly. The owner may zero it after reading (the SRP
	// moves it into srp.reassembly_dropped after every packet).
	Dropped int
}

// fragments is one partial message: the fragments received so far, held
// as aliases of the chunks they arrived in, and their total length.
type fragments struct {
	parts [][]byte
	size  int
}

// NewAssembler returns an empty assembler.
func NewAssembler() *Assembler {
	return &Assembler{partial: make(map[asmKey]*fragments)}
}

// Add processes one chunk from sender and returns (message, true) when the
// chunk completes an application message.
//
// Zero-copy contract: for an unfragmented message (First|Last) the
// returned slice aliases c.Data — no copy is made, and the assembler
// itself never retains or mutates it. The caller owns the returned slice
// only as far as the chunk's backing buffer lives and must treat it as
// read-only (the SRP retains decoded packets for retransmission until the
// safe horizon passes); a caller that needs to mutate or outlive the
// packet must copy.
//
// A fragmented message is copied exactly once: Add keeps each fragment as
// an alias of c.Data until the ChunkLast fragment arrives, then copies
// them all into one buffer of the message's exact size, which the caller
// owns outright. Holding the aliases is safe because no chunk buffer the
// SRP feeds in is reused before its message completes or is abandoned:
//
//   - received chunks are DecodeData's private copy, never the frame;
//   - own interactive chunks alias the message the packer owns (Enqueue
//     transfers ownership, and nothing reuses it);
//   - own bulk chunks alias chunk envelopes that return to the free list
//     only when the packet carrying the envelope's last piece is pruned,
//     which happens after that piece is delivered — that is, after this
//     assembler completed the message;
//   - on a ring change the envelope buffers still awaiting pruning are
//     dropped to the GC rather than recycled, so an old-ring assembler's
//     partials can never see a buffer rewritten.
func (a *Assembler) Add(sender proto.NodeID, c Chunk) ([]byte, bool) {
	key := asmKey{sender: sender, bulk: c.Flags&ChunkBulk != 0}
	first := c.Flags&ChunkFirst != 0
	last := c.Flags&ChunkLast != 0
	f, inProgress := a.partial[key]
	if inProgress && first {
		// A fresh start abandons the partially-assembled prefix.
		a.Dropped++
		delete(a.partial, key)
		a.release(f)
		f = nil
	}
	switch {
	case first && last:
		return c.Data, true
	case first:
		if n := len(a.free); n > 0 {
			f = a.free[n-1]
			a.free = a.free[:n-1]
		} else {
			f = new(fragments)
		}
		f.parts = append(f.parts, c.Data)
		f.size = len(c.Data)
		a.partial[key] = f
		return nil, false
	case f == nil:
		a.Dropped++
		return nil, false
	case !last:
		f.parts = append(f.parts, c.Data)
		f.size += len(c.Data)
		return nil, false
	default:
		msg := make([]byte, f.size+len(c.Data))
		off := 0
		for _, p := range f.parts {
			off += copy(msg[off:], p)
		}
		copy(msg[off:], c.Data)
		delete(a.partial, key)
		a.release(f)
		return msg, true
	}
}

// release clears a fragment list, so it pins no chunk buffer, and keeps
// it for reuse.
func (a *Assembler) release(f *fragments) {
	clear(f.parts)
	f.parts = f.parts[:0]
	f.size = 0
	if len(a.free) < maxFreeFragments {
		a.free = append(a.free, f)
	}
}

// maxFreeFragments bounds the fragment-list free list: one per sender and
// lane in flight covers any realistic ring.
const maxFreeFragments = 64

// Reset discards all partial state (used on configuration change).
func (a *Assembler) Reset() {
	for k, f := range a.partial {
		delete(a.partial, k)
		a.release(f)
	}
}
