// Package shard implements the pieces of multi-ring sharding that are
// independent of the protocol stack: the key→shard hash, the CrossOrder
// payload envelope, a Lamport clock, and the deterministic cross-shard
// merge that turns M per-shard total orders into one global total order.
//
// The merge is intentionally sequencer-free, in the spirit of Totem's
// multiple-ring extension: every node runs the same pure function over
// the same M delivered streams (each totally ordered by its own ring),
// so every node computes the same merged order with no extra messages
// beyond periodic idle markers.
package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"github.com/totem-rrp/totem/internal/proto"
)

// Hash maps a key to a shard in [0, shards) with FNV-1a. It is the
// default ShardFunc: stable across processes and platforms, cheap, and
// well-spread for short keys.
func Hash(key []byte, shards int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return int(h % uint64(shards))
}

// CrossOrder payload envelope. When the merge is on, every application
// payload is prefixed with a kind byte and the sender's Lamport stamp;
// idle shards carry periodic marker messages (no payload) so their merge
// cut keeps advancing. The envelope exists only inside CrossOrder mode —
// plain sharding delivers raw payloads untouched.
const (
	// KindApp tags an application payload.
	KindApp byte = 0x01
	// KindMarker tags an idle-shard cut-advancement message.
	KindMarker byte = 0x02
	// KindFloor tags a floor announcement: the stamp is the sender's cut
	// on the shard and the body names the configuration it opens (see
	// Merge.Begin).
	KindFloor byte = 0x03
	// EnvOverhead is the envelope cost: kind(1) + lamport(8).
	EnvOverhead = 9
)

// ErrEnvelope reports a malformed CrossOrder envelope.
var ErrEnvelope = errors.New("shard: malformed cross-order envelope")

// WrapApp prefixes payload with an application envelope.
func WrapApp(ts uint64, payload []byte) []byte {
	buf := make([]byte, EnvOverhead+len(payload))
	buf[0] = KindApp
	binary.BigEndian.PutUint64(buf[1:], ts)
	copy(buf[EnvOverhead:], payload)
	return buf
}

// WrapMarker builds an idle-shard marker message.
func WrapMarker(ts uint64) []byte {
	buf := make([]byte, EnvOverhead)
	buf[0] = KindMarker
	binary.BigEndian.PutUint64(buf[1:], ts)
	return buf
}

// WrapFloor builds the floor announcement for configuration ring: the
// sender's cut on the shard, as of the first delivery it saw in ring.
func WrapFloor(cut uint64, ring proto.RingID) []byte {
	buf := make([]byte, EnvOverhead+8)
	buf[0] = KindFloor
	binary.BigEndian.PutUint64(buf[1:], cut)
	binary.BigEndian.PutUint32(buf[EnvOverhead:], uint32(ring.Rep))
	binary.BigEndian.PutUint32(buf[EnvOverhead+4:], ring.Epoch)
	return buf
}

// FloorRing decodes the configuration a floor announcement's body names.
func FloorRing(body []byte) (proto.RingID, error) {
	if len(body) != 8 {
		return proto.RingID{}, fmt.Errorf("%w: floor body of %d bytes", ErrEnvelope, len(body))
	}
	return proto.RingID{
		Rep:   proto.NodeID(binary.BigEndian.Uint32(body)),
		Epoch: binary.BigEndian.Uint32(body[4:]),
	}, nil
}

// Unwrap splits a CrossOrder payload into kind, Lamport stamp, and the
// application bytes (nil for markers).
func Unwrap(data []byte) (byte, uint64, []byte, error) {
	if len(data) < EnvOverhead {
		return 0, 0, nil, fmt.Errorf("%w: %d bytes", ErrEnvelope, len(data))
	}
	kind := data[0]
	if kind != KindApp && kind != KindMarker && kind != KindFloor {
		return 0, 0, nil, fmt.Errorf("%w: kind %#02x", ErrEnvelope, kind)
	}
	return kind, binary.BigEndian.Uint64(data[1:]), data[EnvOverhead:], nil
}

// Clock is a Lamport clock shared by all shards of one node: Tick stamps
// outbound messages, Observe folds in stamps seen on delivery so later
// sends sort after everything the node has already observed.
type Clock struct {
	mu sync.Mutex
	t  uint64
}

// Tick advances the clock and returns the new stamp (always >= 1).
func (c *Clock) Tick() uint64 {
	c.mu.Lock()
	c.t++
	t := c.t
	c.mu.Unlock()
	return t
}

// Observe folds a delivered stamp into the clock.
func (c *Clock) Observe(ts uint64) {
	c.mu.Lock()
	if ts > c.t {
		c.t = ts
	}
	c.mu.Unlock()
}

// Item is one delivered message entering the merge.
type Item struct {
	TS      uint64      // sender's Lamport stamp
	Marker  bool        // cut-advancement message; consumed, never released
	Payload interface{} // opaque to the merge (the totem layer stores its Delivery)
}

// entry is an Item after effective-timestamp normalisation.
type entry struct {
	eff uint64
	it  Item
}

// Merge is the deterministic M-way merge. Push feeds shard s's delivered
// stream in its ring order; Pop releases the next message of the merged
// global order, or reports that no release is currently safe.
//
// Determinism: each item's effective timestamp is the running max of
// stamps delivered so far on its shard — a pure function of that shard's
// delivered prefix, which Totem makes identical at every node. The merged
// order is then the unique sort by (effective TS, shard, in-shard
// position), so every node releases the same sequence regardless of how
// shard deliveries interleave in real time.
//
// Safety of a release: the head (t, s) may be released only when no shard
// can later contribute an item sorting before it. A shard with a queued
// item can't (effective timestamps are monotone per shard, so its head is
// its earliest, and the head already lost the min comparison); an empty
// shard s' can't once lastEff[s'] > t, or lastEff[s'] == t with s' > s.
// Idle shards are kept live by periodic markers advancing lastEff.
//
// Totem makes a shard's delivered prefix identical only among the
// members of one configuration. A member that delivered in a
// configuration the others never saw (its own messages in a singleton
// ring while the shard was cut off) carries a higher running max into the
// next configuration and would order the messages they share
// differently. So the running max is agreed afresh at every regular
// configuration: at its first delivery each member announces its cut
// (Begin returns it; the caller broadcasts it with WrapFloor), the
// shard's items are held, and once every member's floor has been
// delivered the shard's cut is raised to the largest one — the same value
// at every member, and no lower than any member's own cut, so effective
// timestamps stay monotone — before the held items enter the queue. A
// configuration that breaks first hands its held items on to the next
// agreement (Begin). What this does not cover: members that leave a
// configuration into different transitional configurations may deliver
// its last messages with different gaps before them, and a message they
// share there can still get different effective stamps.
//
// Merge is not concurrency-safe; the owner serialises access.
type Merge struct {
	queues  []fifo
	lastEff []uint64
	floors  []floorRound
}

// floorRound is one shard's floor agreement for the configuration its
// latest regular delivery belongs to.
type floorRound struct {
	ring    proto.RingID
	members []proto.NodeID // nil: unknown; settled by the next Begin
	got     map[proto.NodeID]uint64
	held    []Item
	open    bool
}

// NewMerge returns a merge over shards streams.
func NewMerge(shards int) *Merge {
	return &Merge{
		queues:  make([]fifo, shards),
		lastEff: make([]uint64, shards),
		floors:  make([]floorRound, shards),
	}
}

// Ring returns the configuration of shard s's latest Begin.
func (m *Merge) Ring(s int) proto.RingID { return m.floors[s].ring }

// Begin opens the floor agreement for shard s's regular configuration
// ring, whose members the caller read from the shard's ring (nil when the
// ring had already moved past it: the agreement then cannot complete).
// An agreement still open on the shard — its configuration broke before
// every floor was delivered — does not settle: its held items ride into
// this one, ahead of ring's items. Begin returns the floor this node must
// announce in ring: its cut on the shard, or the largest stamp among the
// items carried in if that is higher, so the agreed floor covers every
// member's carried items and they all take it as their effective stamp.
func (m *Merge) Begin(s int, ring proto.RingID, members []proto.NodeID) uint64 {
	f := &m.floors[s]
	floor := m.lastEff[s]
	held := f.held[:0]
	if f.open {
		held = f.held
		for _, it := range held {
			if it.TS > floor {
				floor = it.TS
			}
		}
	}
	*f = floorRound{ring: ring, members: members, got: make(map[proto.NodeID]uint64), held: held, open: true}
	return floor
}

// Floor records member from's floor announcement for configuration ring,
// delivered on shard s, and releases the shard's held items once every
// member's floor is in.
func (m *Merge) Floor(s int, ring proto.RingID, from proto.NodeID, floor uint64) {
	f := &m.floors[s]
	if !f.open || ring != f.ring {
		return // a stale announcement, or one for a settled agreement
	}
	f.got[from] = floor
	if f.members == nil {
		return
	}
	for _, id := range f.members {
		if _, ok := f.got[id]; !ok {
			return
		}
	}
	m.settle(s)
}

// settle raises shard s's cut to the largest floor delivered and feeds
// the held items into the queue.
func (m *Merge) settle(s int) {
	f := &m.floors[s]
	for _, fl := range f.got {
		if fl > m.lastEff[s] {
			m.lastEff[s] = fl
		}
	}
	f.open = false
	for i, it := range f.held {
		m.push(s, it)
		f.held[i] = Item{}
	}
	f.held = f.held[:0]
}

// Push appends the next delivered item of shard s.
func (m *Merge) Push(s int, it Item) {
	if f := &m.floors[s]; f.open {
		f.held = append(f.held, it)
		return
	}
	m.push(s, it)
}

func (m *Merge) push(s int, it Item) {
	eff := it.TS
	if m.lastEff[s] > eff {
		eff = m.lastEff[s]
	}
	m.lastEff[s] = eff
	m.queues[s].push(entry{eff: eff, it: it})
}

// Pop returns the next releasable application item and its shard, or
// ok=false when nothing can safely be released yet. Markers are consumed
// internally.
func (m *Merge) Pop() (Item, int, bool) {
	for {
		// Min head by (effective TS, shard).
		s := -1
		var t uint64
		for i := range m.queues {
			h, ok := m.queues[i].peek()
			if !ok {
				continue
			}
			if s == -1 || h.eff < t {
				s, t = i, h.eff
			}
		}
		if s == -1 {
			return Item{}, 0, false
		}
		// Every empty shard must already be provably past (t, s).
		for i := range m.queues {
			if i == s || m.queues[i].len() > 0 {
				continue
			}
			if m.lastEff[i] > t || (m.lastEff[i] == t && i > s) {
				continue
			}
			return Item{}, 0, false
		}
		e, _ := m.queues[s].pop()
		if e.it.Marker {
			continue
		}
		return e.it, s, true
	}
}

// Pending reports the number of queued (unreleased) items, markers and
// items held for a floor agreement included — the merge's hold-back
// depth, surfaced as a gauge.
func (m *Merge) Pending() int {
	n := 0
	for i := range m.queues {
		n += m.queues[i].len() + len(m.floors[i].held)
	}
	return n
}

// Cut returns shard s's merge cut: the effective timestamp its stream has
// provably advanced past.
func (m *Merge) Cut(s int) uint64 { return m.lastEff[s] }

// fifo is an amortised-O(1) queue (slice + head index with compaction);
// the merge never needs more than append/peek/pop.
type fifo struct {
	buf  []entry
	head int
}

func (f *fifo) push(e entry) { f.buf = append(f.buf, e) }

func (f *fifo) len() int { return len(f.buf) - f.head }

func (f *fifo) peek() (entry, bool) {
	if f.head >= len(f.buf) {
		return entry{}, false
	}
	return f.buf[f.head], true
}

func (f *fifo) pop() (entry, bool) {
	if f.head >= len(f.buf) {
		return entry{}, false
	}
	e := f.buf[f.head]
	f.buf[f.head] = entry{} // drop the payload reference
	f.head++
	if f.head > 64 && f.head*2 >= len(f.buf) {
		n := copy(f.buf, f.buf[f.head:])
		for i := n; i < len(f.buf); i++ {
			f.buf[i] = entry{}
		}
		f.buf = f.buf[:n]
		f.head = 0
	}
	return e, true
}
