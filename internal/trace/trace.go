// Package trace provides structured, low-overhead event tracing for the
// protocol stack: packet transmissions and receptions, timer expirations,
// deliveries, fault reports, configuration changes and typed in-machine
// probe events. Drivers (the simulator and the real-time runtime) record
// into a Tracer; tests, the fault-injection tool and the live /trace
// debug endpoint read back a time-ordered event log.
//
// Events carry typed payloads (a code plus three integers) rather than
// preformatted strings: recording is allocation-free, and human-readable
// text is produced lazily by Event.String only when someone looks.
package trace

import (
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/totem-rrp/totem/internal/proto"
	"github.com/totem-rrp/totem/internal/wire"
)

// Kind classifies an event.
type Kind int

// Event kinds.
const (
	PacketSent Kind = iota + 1
	PacketReceived
	TimerFired
	Delivered
	FaultRaised
	FaultCleared
	ConfigChanged
	Machine
	Note
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case PacketSent:
		return "tx"
	case PacketReceived:
		return "rx"
	case TimerFired:
		return "timer"
	case Delivered:
		return "deliver"
	case FaultRaised:
		return "fault"
	case FaultCleared:
		return "cleared"
	case ConfigChanged:
		return "config"
	case Machine:
		return "machine"
	case Note:
		return "note"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one traced occurrence. The typed fields A, B and C carry the
// payload; their meaning depends on Kind (and, for Machine events, Code):
//
//	PacketSent/PacketReceived: A = wire kind, B = destination node
//	                           (proto.BroadcastID for broadcast), C = bytes
//	TimerFired:                A = timer class, B = timer arg
//	Delivered:                 A = seq, B = sender, C = bytes
//	FaultCleared:              A = probation (clean windows served)
//	ConfigChanged:             A = representative, B = epoch, C = members
//	Machine:                   per Code; see proto.ProbeCode
//
// Detail is optional preformatted text (a fault reason, a note); when it
// is empty String derives text from the typed fields on demand.
type Event struct {
	// At is the (virtual or real) time of the event.
	At time.Duration
	// Node is the observing node.
	Node proto.NodeID
	// Kind classifies the event.
	Kind Kind
	// Code identifies the machine event for Kind == Machine.
	Code proto.ProbeCode
	// Network is the network index for per-network events (-1 otherwise).
	Network int
	// A, B, C are the typed payload (meaning per Kind/Code).
	A, B, C int64
	// Detail is optional preformatted text. Recording a constant string
	// ("transitional", a fault reason that already exists) is free; never
	// build one with fmt.Sprintf on the recording path.
	Detail string
}

// Text returns the human-readable payload description, using Detail when
// present and formatting the typed fields otherwise.
func (e Event) Text() string {
	if e.Detail != "" {
		return e.Detail
	}
	switch e.Kind {
	case PacketSent, PacketReceived:
		if proto.NodeID(e.B) == proto.BroadcastID {
			return fmt.Sprintf("%v -> bcast (%dB)", wire.Kind(e.A), e.C)
		}
		return fmt.Sprintf("%v -> n%d (%dB)", wire.Kind(e.A), e.B, e.C)
	case TimerFired:
		return proto.TimerID{Class: proto.TimerClass(e.A), Arg: uint32(e.B)}.String()
	case Delivered:
		return fmt.Sprintf("seq %d from n%d (%dB)", e.A, e.B, e.C)
	case FaultCleared:
		return fmt.Sprintf("readmitted after %d clean windows", e.A)
	case ConfigChanged:
		return fmt.Sprintf("new ring ring(n%d,%d) members %d", e.A, e.B, e.C)
	case Machine:
		return formatMachine(e.Code, e.A, e.B, e.C)
	}
	return ""
}

// formatMachine renders a probe event's payload per its code.
func formatMachine(code proto.ProbeCode, a, b, c int64) string {
	switch code {
	case proto.ProbeTokenGathered:
		return fmt.Sprintf("%v seq %d rot %d", code, a, b)
	case proto.ProbeTokenGated, proto.ProbeTokenTimedOut, proto.ProbeTokenDiscarded:
		return fmt.Sprintf("%v seq %d", code, a)
	case proto.ProbeMonitorThreshold:
		return fmt.Sprintf("%v %d/%d", code, a, b)
	case proto.ProbeMonitorDecay:
		return fmt.Sprintf("%v window %d headroom %d", code, a, b)
	case proto.ProbeProbation:
		return fmt.Sprintf("%v %d/%d clean windows", code, a, b)
	case proto.ProbeProbeSent:
		return fmt.Sprintf("%v budget %d", code, a)
	case proto.ProbeFlapBackoff:
		return fmt.Sprintf("%v probation now %d windows", code, a)
	case proto.ProbeRetransRequested, proto.ProbeRetransServed:
		return fmt.Sprintf("%v seq %d", code, a)
	case proto.ProbeFlowStall:
		return fmt.Sprintf("%v backlog %d", code, a)
	case proto.ProbePhase:
		return fmt.Sprintf("%v %d -> %d", code, a, b)
	case proto.ProbeTokenLoss:
		return fmt.Sprintf("%v last seq %d", code, a)
	case proto.ProbeSeqRollover:
		return fmt.Sprintf("%v seq %d limit %d", code, a, b)
	default:
		return fmt.Sprintf("%v a=%d b=%d c=%d", code, a, b, c)
	}
}

// String implements fmt.Stringer.
func (e Event) String() string {
	if e.Network >= 0 {
		return fmt.Sprintf("%-12v %v %-7s net%d %s", e.At, e.Node, e.Kind, e.Network, e.Text())
	}
	return fmt.Sprintf("%-12v %v %-7s      %s", e.At, e.Node, e.Kind, e.Text())
}

// Tracer receives events. Implementations must be safe for concurrent
// use; the simulator is single-threaded but the real-time runtime is not.
type Tracer interface {
	Record(Event)
}

// Discard is a Tracer that drops everything.
var Discard Tracer = discard{}

type discard struct{}

func (discard) Record(Event) {}

// Ring is a fixed-capacity ring-buffer tracer: recording never allocates
// after construction and old events are overwritten, so it can stay
// enabled in long runs.
type Ring struct {
	mu    sync.Mutex
	buf   []Event
	next  int
	count uint64
	// scratch is Dump's reusable event buffer, guarded by dumpMu so
	// concurrent dumps do not trample each other.
	dumpMu  sync.Mutex
	scratch []Event
}

// NewRing returns a tracer retaining the last capacity events.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = 1
	}
	return &Ring{buf: make([]Event, capacity)}
}

// Record implements Tracer.
func (r *Ring) Record(e Event) {
	r.mu.Lock()
	r.buf[r.next] = e
	r.next = (r.next + 1) % len(r.buf)
	r.count++
	r.mu.Unlock()
}

// Len returns the number of retained events.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.count < uint64(len(r.buf)) {
		return int(r.count)
	}
	return len(r.buf)
}

// Total returns the number of events ever recorded.
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// Events appends the retained events to buf, oldest first, and returns
// the extended slice. Pass a slice retained across calls (or nil) to
// avoid a per-dump allocation once its capacity has grown to the ring's.
func (r *Ring) Events(buf []Event) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.count < uint64(len(r.buf)) {
		return append(buf, r.buf[:r.count]...)
	}
	buf = append(buf, r.buf[r.next:]...)
	return append(buf, r.buf[:r.next]...)
}

// Dump writes the retained events to w, oldest first. The event snapshot
// buffer is reused across calls, so periodic dumps (the /trace endpoint)
// settle to zero event-buffer allocations.
func (r *Ring) Dump(w io.Writer) error {
	r.dumpMu.Lock()
	defer r.dumpMu.Unlock()
	r.scratch = r.Events(r.scratch[:0])
	for _, e := range r.scratch {
		if _, err := fmt.Fprintln(w, e); err != nil {
			return err
		}
	}
	return nil
}

// Filter forwards only events matching the predicate. A nil Next drops
// everything (so a Filter can be built before its sink is known), and a
// nil Keep forwards everything.
type Filter struct {
	Next Tracer
	Keep func(Event) bool
}

// Record implements Tracer.
func (f Filter) Record(e Event) {
	if f.Next == nil {
		return
	}
	if f.Keep == nil || f.Keep(e) {
		f.Next.Record(e)
	}
}

// Multi fans events out to several tracers.
type Multi []Tracer

// Record implements Tracer.
func (m Multi) Record(e Event) {
	for _, t := range m {
		t.Record(e)
	}
}

// Counter tallies events per kind — and Machine events per probe code —
// for structured assertions in tests.
type Counter struct {
	mu     sync.Mutex
	counts map[Kind]uint64
	codes  map[proto.ProbeCode]uint64
}

// NewCounter returns an empty counter.
func NewCounter() *Counter {
	return &Counter{
		counts: make(map[Kind]uint64),
		codes:  make(map[proto.ProbeCode]uint64),
	}
}

// Record implements Tracer.
func (c *Counter) Record(e Event) {
	c.mu.Lock()
	c.counts[e.Kind]++
	if e.Kind == Machine {
		c.codes[e.Code]++
	}
	c.mu.Unlock()
}

// Count returns the tally for one kind.
func (c *Counter) Count(k Kind) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts[k]
}

// CodeCount returns the tally for one machine probe code.
func (c *Counter) CodeCount(code proto.ProbeCode) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.codes[code]
}
