package srp

import "github.com/totem-rrp/totem/internal/wire"

// rxBeyondWindows bounds, in multiples of WindowSize, how far past the
// prune horizon the machine accepts a current-ring data packet. Flow
// control keeps every correct sender within about one window of the
// token ARU, and the horizon trails that ARU by at most a couple of
// rotations; a recovery's re-broadcast old-ring packets (the horizon
// stays at zero until the ring installs) add a few windows per merging
// ring. Anything further out is a garbled sequence number, and storing it
// would grow the receive window without limit.
const rxBeyondWindows = 64

// maxFreePackets bounds the recycled packet-header free list.
const maxFreePackets = 256

// rxWindow holds the retained data packets of one ring, indexed by
// sequence number in a power-of-two ring buffer. Every sequence number at
// or below base is absent; the buffer covers (base, top], so a lookup is
// one mask and pruning costs only the sequence numbers it passes.
type rxWindow struct {
	slots []*wire.DataPacket
	base  uint32
	top   uint32
}

// get returns the packet stored under seq, or nil.
func (w *rxWindow) get(seq uint32) *wire.DataPacket {
	if seq <= w.base || seq > w.top {
		return nil
	}
	return w.slots[seq&uint32(len(w.slots)-1)]
}

// beyond reports whether seq lies more than limit past base.
func (w *rxWindow) beyond(seq, limit uint32) bool {
	return seq > w.base && seq-w.base > limit
}

// put stores p under seq (which must be non-zero), growing the buffer to
// cover it; a seq at or below base moves base down to admit it.
func (w *rxWindow) put(seq uint32, p *wire.DataPacket) {
	switch {
	case seq <= w.base:
		w.fit(w.top - (seq - 1))
		w.base = seq - 1
	case seq > w.top:
		w.fit(seq - w.base)
		w.top = seq
	}
	w.slots[seq&uint32(len(w.slots)-1)] = p
}

// fit grows the buffer to hold at least span consecutive sequence
// numbers, re-placing the packets of (base, top].
func (w *rxWindow) fit(span uint32) {
	if uint32(len(w.slots)) >= span {
		return
	}
	n := uint32(max(len(w.slots), 16))
	for n < span {
		n *= 2
	}
	slots := make([]*wire.DataPacket, n)
	if len(w.slots) > 0 {
		mask := uint32(len(w.slots) - 1)
		for s := w.base + 1; s <= w.top && s != 0; s++ {
			slots[s&(n-1)] = w.slots[s&mask]
		}
	}
	w.slots = slots
}

// prune removes every packet at or below h and hands it to free.
func (w *rxWindow) prune(h uint32, free *packetFree) {
	if h <= w.base {
		return
	}
	if len(w.slots) > 0 {
		mask := uint32(len(w.slots) - 1)
		for s := w.base + 1; s <= min(h, w.top) && s != 0; s++ {
			if p := w.slots[s&mask]; p != nil {
				w.slots[s&mask] = nil
				free.put(p)
			}
		}
	}
	w.base = h
	if w.top < h {
		w.top = h
	}
}

// packetFree is the bounded free list of recycled packet headers. A
// recycled header keeps its chunk slice for the next decode or packing
// pass; the chunk payload regions it pointed at are never reused, because
// deliveries alias them (DESIGN §8b).
type packetFree struct {
	list []*wire.DataPacket
}

// get returns a zeroed header, recycled when one is free.
func (f *packetFree) get() *wire.DataPacket {
	if n := len(f.list); n > 0 {
		p := f.list[n-1]
		f.list[n-1] = nil
		f.list = f.list[:n-1]
		return p
	}
	return new(wire.DataPacket)
}

// put recycles p. The caller must hold the only reference to it.
func (f *packetFree) put(p *wire.DataPacket) {
	if len(f.list) >= maxFreePackets {
		return
	}
	clear(p.Chunks)
	*p = wire.DataPacket{Chunks: p.Chunks[:0]}
	f.list = append(f.list, p)
}
