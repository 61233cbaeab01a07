package proto

import (
	"fmt"
	"time"
)

// Action is one output of a protocol state machine. Drivers (the simulator
// or the real-time runtime) execute actions in the order they were emitted.
type Action interface {
	isAction()
}

// SendPacket transmits an encoded packet on one network. Dest is a node ID
// for unicast (token passing) or BroadcastID for ring-wide broadcast.
//
// SendPacket travels as *SendPacket inside Action: boxing a pointer is
// allocation-free, which keeps the per-packet fan-out (one action per
// network, several per token visit) off the heap. The objects come from a
// free list replenished by Recycle, so a driver must copy any field it
// needs after recycling a batch.
type SendPacket struct {
	Network int
	Dest    NodeID
	Data    []byte
}

// SetTimer arms (or re-arms) the timer identified by ID to fire After from
// now. Arming an already-armed timer replaces its deadline.
type SetTimer struct {
	ID    TimerID
	After time.Duration
}

// CancelTimer disarms the identified timer. Cancelling an unarmed timer is
// a no-op.
type CancelTimer struct {
	ID TimerID
}

// Deliver hands a totally-ordered application message up to the user.
//
// Deliver travels as *Deliver, pooled the way *SendPacket is: a driver
// must copy Msg before recycling the batch.
type Deliver struct {
	Msg Delivery
}

// Fault surfaces an RRP network-fault report to the user (paper §3: the
// protocol "raises an alarm" while the system stays operational).
type Fault struct {
	Report FaultReport
}

// FaultCleared surfaces an RRP recovery report: a previously faulty
// network passed its probation and was automatically readmitted. The
// counterpart of Fault, so operators see recovery as well as failure.
type FaultCleared struct {
	Report ClearReport
}

// Config surfaces a membership configuration change to the user.
type Config struct {
	Change ConfigChange
}

// BulkSignal surfaces a bulk-transfer lane event (chunk acknowledgement or
// configuration-change rewind notice) to the sender-side transfer manager.
type BulkSignal struct {
	Ev BulkEvent
}

func (*SendPacket) isAction()  {}
func (SetTimer) isAction()     {}
func (CancelTimer) isAction()  {}
func (*Deliver) isAction()     {}
func (Fault) isAction()        {}
func (FaultCleared) isAction() {}
func (Config) isAction()       {}
func (BulkSignal) isAction()   {}

// Delivery is a totally-ordered message delivered to the application.
type Delivery struct {
	// Ring is the configuration the message was ordered in.
	Ring RingID
	// Sender is the node that originated the message.
	Sender NodeID
	// Seq is the global packet sequence number that completed the message;
	// deliveries within one ring are strictly ordered by Seq and identical
	// at every member.
	Seq uint32
	// Payload is the application payload. The slice is a read-only view
	// that may alias buffers the protocol retains for retransmission
	// until the safe horizon passes; the receiver may keep it but must
	// copy before mutating.
	Payload []byte
	// Transitional marks messages delivered in a transitional
	// configuration during membership recovery (extended virtual
	// synchrony).
	Transitional bool
	// Bulk marks a completed bulk transfer reassembled from the bulk lane:
	// Payload is the whole multi-chunk transfer (owned by the receiver)
	// and Seq is the sequence number of the packet that completed it.
	Bulk bool
	// Shard is the ring shard the message was ordered on. The protocol
	// machines never set it: a multi-ring node tags it at the delivery
	// fan-in, so it is always 0 on a single-ring node.
	Shard int
}

// BulkEventKind classifies bulk-lane sender events.
type BulkEventKind int

// Bulk event kinds.
const (
	// BulkAcked: the sender delivered its own bulk chunk — the ring-wide
	// acknowledgement that every member of the configuration ordered it.
	BulkAcked BulkEventKind = iota + 1
	// BulkReconfig: a regular configuration was installed; senders must
	// rewind in-flight transfers to their last contiguous acknowledged
	// offset and re-send (receivers deduplicate).
	BulkReconfig
)

// BulkEvent is one bulk-lane sender event.
type BulkEvent struct {
	Kind BulkEventKind
	// ID is the transfer identifier (sender-local); zero for BulkReconfig.
	ID uint64
	// Offset and Len locate the acknowledged chunk within the transfer.
	Offset uint64
	Len    int
	// Time is the (virtual or real) time of the event.
	Time Time
}

// FaultReport describes a detected network fault (paper §3). The protocol
// marks the network faulty, stops sending on it, and keeps operating on the
// remaining networks.
type FaultReport struct {
	// Network is the index of the network declared faulty.
	Network int
	// Reason is a human-readable diagnosis (e.g. which monitor fired).
	Reason string
	// Time is the (virtual or real) time of detection.
	Time Time
	// Shard is the ring shard whose monitors raised the report (tagged at
	// the multi-ring fan-in; 0 on a single-ring node).
	Shard int
}

// String implements fmt.Stringer.
func (f FaultReport) String() string {
	return fmt.Sprintf("network %d faulty at %v: %s", f.Network, f.Time, f.Reason)
}

// ClearReport describes the automatic readmission of a healed network: the
// RRP recovery monitor observed clean receptions on the faulty network for
// a full probation period and re-enabled it without operator action.
type ClearReport struct {
	// Network is the index of the readmitted network.
	Network int
	// Probation is the number of consecutive clean decay windows the
	// network had to serve. It grows exponentially under flap damping, so
	// a rising value across reports identifies an oscillating network.
	Probation int
	// Time is the (virtual or real) time of readmission.
	Time Time
	// Shard is the ring shard that readmitted the network (tagged at the
	// multi-ring fan-in; 0 on a single-ring node).
	Shard int
}

// String implements fmt.Stringer.
func (c ClearReport) String() string {
	return fmt.Sprintf("network %d readmitted at %v after %d clean windows", c.Network, c.Time, c.Probation)
}

// ConfigChange reports a membership change. Per extended virtual synchrony
// a regular configuration is preceded by a transitional configuration that
// scopes the messages delivered between the old and new memberships.
type ConfigChange struct {
	Ring         RingID
	Members      []NodeID
	Transitional bool
	// Shard is the ring shard whose membership changed (tagged at the
	// multi-ring fan-in; 0 on a single-ring node).
	Shard int
}

// String implements fmt.Stringer.
func (c ConfigChange) String() string {
	kind := "regular"
	if c.Transitional {
		kind = "transitional"
	}
	return fmt.Sprintf("%s config %v members %v", kind, c.Ring, c.Members)
}

// Actions is an append-only buffer the machines emit into. The zero value
// is ready to use.
//
// Drivers that run the protocol in a loop can avoid allocating a fresh
// backing array per event by returning drained batches with Recycle; the
// next emission after a Drain reuses the most recently recycled array.
// Reuse is deliberately not done in place on Drain because handlers can
// re-enter the machine while a batch is still being executed (e.g. an
// application submitting from its delivery callback).
type Actions struct {
	list   []Action
	free   [][]Action
	spFree []*SendPacket
	dFree  []*Deliver
	// probe, when non-nil, receives typed in-machine events (see probe.go).
	// Kept here so every machine layer sharing the buffer shares the hook.
	probe ProbeFunc
}

// Send appends a SendPacket action.
func (a *Actions) Send(network int, dest NodeID, data []byte) {
	a.grab()
	var sp *SendPacket
	if n := len(a.spFree); n > 0 {
		sp = a.spFree[n-1]
		a.spFree = a.spFree[:n-1]
	} else {
		sp = new(SendPacket)
	}
	sp.Network, sp.Dest, sp.Data = network, dest, data
	a.list = append(a.list, sp)
}

// grab installs a recycled backing array when the buffer is empty.
func (a *Actions) grab() {
	if a.list == nil && len(a.free) > 0 {
		a.list = a.free[len(a.free)-1]
		a.free = a.free[:len(a.free)-1]
	}
}

// SetTimer appends a SetTimer action.
func (a *Actions) SetTimer(id TimerID, after time.Duration) {
	a.grab()
	a.list = append(a.list, SetTimer{ID: id, After: after})
}

// CancelTimer appends a CancelTimer action.
func (a *Actions) CancelTimer(id TimerID) {
	a.grab()
	a.list = append(a.list, CancelTimer{ID: id})
}

// Deliver appends a Deliver action.
func (a *Actions) Deliver(d Delivery) {
	a.grab()
	var dv *Deliver
	if n := len(a.dFree); n > 0 {
		dv = a.dFree[n-1]
		a.dFree = a.dFree[:n-1]
	} else {
		dv = new(Deliver)
	}
	dv.Msg = d
	a.list = append(a.list, dv)
}

// Fault appends a Fault action.
func (a *Actions) Fault(r FaultReport) {
	a.grab()
	a.list = append(a.list, Fault{Report: r})
}

// FaultCleared appends a FaultCleared action.
func (a *Actions) FaultCleared(r ClearReport) {
	a.grab()
	a.list = append(a.list, FaultCleared{Report: r})
}

// Config appends a Config action.
func (a *Actions) Config(c ConfigChange) {
	a.grab()
	a.list = append(a.list, Config{Change: c})
}

// Bulk appends a BulkSignal action.
func (a *Actions) Bulk(e BulkEvent) {
	a.grab()
	a.list = append(a.list, BulkSignal{Ev: e})
}

// Append appends an arbitrary action.
func (a *Actions) Append(act Action) {
	a.grab()
	a.list = append(a.list, act)
}

// Drain returns the buffered actions and resets the buffer.
func (a *Actions) Drain() []Action {
	out := a.list
	a.list = nil
	return out
}

// maxFreeActions bounds each pooled-action free list.
const maxFreeActions = 256

// Recycle returns a batch obtained from Drain once the driver has finished
// executing it. The backing array is cleared and the pooled *SendPacket
// and *Deliver objects are zeroed (so recycled batches do not pin packet
// buffers or payloads) and reused by later emissions. Callers must not
// touch the batch afterwards.
func (a *Actions) Recycle(batch []Action) {
	if cap(batch) == 0 {
		return
	}
	for _, act := range batch {
		switch act := act.(type) {
		case *SendPacket:
			act.Data = nil
			if len(a.spFree) < maxFreeActions {
				a.spFree = append(a.spFree, act)
			}
		case *Deliver:
			act.Msg = Delivery{}
			if len(a.dFree) < maxFreeActions {
				a.dFree = append(a.dFree, act)
			}
		}
	}
	clear(batch[:cap(batch)])
	if len(a.free) < 4 {
		a.free = append(a.free, batch[:0])
	}
}

// Len returns the number of buffered actions.
func (a *Actions) Len() int { return len(a.list) }
