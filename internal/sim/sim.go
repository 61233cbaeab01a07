// Package sim is a deterministic discrete-event simulator for clusters of
// Totem nodes connected by N redundant broadcast networks. It substitutes
// for the paper's testbed (dual 100 Mbit/s Ethernets on Pentium-class
// hosts): links serialise frames at a configured bit rate, each node's CPU
// serialises packet handling at configured per-packet costs, and faults
// (network death, per-node send/receive block, partitions, random loss)
// are injectable at any virtual time. Same seed, same schedule — runs are
// exactly reproducible.
package sim

import (
	"time"

	"github.com/totem-rrp/totem/internal/proto"
)

// eventKind selects what an event does when it runs. The cluster's
// per-packet and per-timer work is typed, so the steady-state step
// schedules no closure; only At/After (boot, fault scripts, workload
// pumps) carry one.
type eventKind uint8

const (
	// evFunc runs fn.
	evFunc eventKind = iota
	// evTimer is a timer expiry: if the timer is still armed (same
	// incarnation and generation), it queues the handler on the node's
	// CPU as an evTick at the same instant.
	evTimer
	// evTick runs the node's timer handler for timer on its CPU.
	evTick
	// evRecv hands a received frame to the node's stack on its CPU.
	evRecv
	// evLoopback is evRecv for a unicast a node sends to itself; it
	// records no receive trace event.
	evLoopback
)

// event is one scheduled unit of work: a callback (evFunc) or a typed
// node event. A node event first queues on the node's CPU: if the CPU is
// busy when the event comes due, the same event is pushed again at the
// start of its reserved slot (reserved set) and runs then.
type event struct {
	at   proto.Time
	seq  uint64 // tie-break: FIFO among simultaneous events
	kind eventKind
	fn   func()

	// Node events. inc fences work queued for an earlier incarnation of
	// node; cost is the CPU time the handler's slot reserves.
	node     *Node
	inc      uint64
	reserved bool
	cost     time.Duration
	// Packet arrival.
	net  int
	dest proto.NodeID
	data []byte
	ref  *frameRef
	// Timer expiry.
	timer proto.TimerID
	gen   uint64
}

// before is the queue order: by time, FIFO among simultaneous events.
// (at, seq) is unique per event, so the order is total and the pop order
// is fully determined.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventHeap is a binary min-heap of events, hand-written over the concrete
// type so the scheduler's hottest loop makes no interface calls.
type eventHeap []*event

func (h *eventHeap) push(e *event) {
	q := append(*h, e)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = e
	*h = q
}

func (h *eventHeap) pop() *event {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && q[r].before(q[c]) {
				c = r
			}
			if !q[c].before(last) {
				break
			}
			q[i] = q[c]
			i = c
		}
		q[i] = last
	}
	*h = q
	return top
}

// Simulator owns the virtual clock and event queue. Executed events are
// kept on a free list and reused, so a steady-state simulation schedules
// without allocating.
type Simulator struct {
	now    proto.Time
	events eventHeap
	seq    uint64
	free   []*event
}

// NewSimulator returns an empty simulator at time zero.
func NewSimulator() *Simulator {
	return &Simulator{}
}

// Now returns the current virtual time.
func (s *Simulator) Now() proto.Time { return s.now }

// alloc returns a zeroed event from the free list.
func (s *Simulator) alloc() *event {
	if n := len(s.free); n > 0 {
		e := s.free[n-1]
		s.free = s.free[:n-1]
		return e
	}
	return new(event)
}

// push queues e at absolute virtual time t (clamped to now), taking the
// next sequence number.
func (s *Simulator) push(t proto.Time, e *event) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	e.at, e.seq = t, s.seq
	s.events.push(e)
}

// release zeroes e (so the free list pins no frame, node or closure) and
// returns it to the free list.
func (s *Simulator) release(e *event) {
	*e = event{}
	s.free = append(s.free, e)
}

// At schedules fn at absolute virtual time t (clamped to now).
func (s *Simulator) At(t proto.Time, fn func()) {
	e := s.alloc()
	e.fn = fn
	s.push(t, e)
}

// After schedules fn d after the current time.
func (s *Simulator) After(d time.Duration, fn func()) {
	s.At(s.now+d, fn)
}

// Step executes the next event; it returns false when the queue is empty.
func (s *Simulator) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	e := s.events.pop()
	s.now = e.at
	if e.kind == evFunc {
		fn := e.fn
		// Recycle before running: e is off the heap and fn may schedule.
		s.release(e)
		fn()
		return true
	}
	if !e.node.run(e) {
		s.release(e)
	}
	return true
}

// Run executes events until the queue empties or the clock passes until.
// The clock is left at min(until, last event time).
func (s *Simulator) Run(until proto.Time) {
	for len(s.events) > 0 && s.events[0].at <= until {
		s.Step()
	}
	if s.now < until {
		s.now = until
	}
}

// Pending returns the number of queued events.
func (s *Simulator) Pending() int { return len(s.events) }
