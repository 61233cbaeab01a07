package srp

import (
	"container/heap"
	"testing"
	"time"

	"github.com/totem-rrp/totem/internal/proto"
)

// The loopback harness connects machines directly (no RRP layer, no
// network model): broadcasts and unicasts are queued and delivered after a
// fixed tiny latency, timers fire at their deadlines, and tests may
// intercept packets to drop or reorder them. It gives the white-box tests
// precise control that the full simulator deliberately abstracts away.

type hEvent struct {
	at  proto.Time
	seq uint64
	fn  func()
}

type hQueue []*hEvent

func (q hQueue) Len() int { return len(q) }
func (q hQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q hQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *hQueue) Push(x any)   { *q = append(*q, x.(*hEvent)) }
func (q *hQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

type harness struct {
	t        *testing.T
	now      proto.Time
	events   hQueue
	seq      uint64
	latency  time.Duration
	machines map[proto.NodeID]*hNode
	order    []proto.NodeID
	// drop decides whether to drop a packet in flight (from, to; to==0 for
	// broadcast copies is the concrete destination).
	drop func(from, to proto.NodeID, data []byte) bool
}

type hNode struct {
	h       *harness
	id      proto.NodeID
	m       *Machine
	acts    proto.Actions
	timers  map[proto.TimerID]uint64
	tgen    uint64
	crashed bool

	delivered []proto.Delivery
	configs   []proto.ConfigChange
	bulkEvs   []proto.BulkEvent
}

func newHarness(t *testing.T, n int, tune func(*Config)) *harness {
	t.Helper()
	h := &harness{
		t:        t,
		latency:  100 * time.Microsecond,
		machines: make(map[proto.NodeID]*hNode),
	}
	for i := 1; i <= n; i++ {
		id := proto.NodeID(i)
		hn := &hNode{h: h, id: id, timers: make(map[proto.TimerID]uint64)}
		cfg := DefaultConfig(id)
		if tune != nil {
			tune(&cfg)
		}
		m, err := NewMachine(cfg, (*hOut)(hn), &hn.acts)
		if err != nil {
			t.Fatalf("NewMachine(%v): %v", id, err)
		}
		hn.m = m
		h.machines[id] = hn
		h.order = append(h.order, id)
	}
	return h
}

// hOut adapts hNode to the Outbound interface.
type hOut hNode

func (o *hOut) Broadcast(data []byte) {
	n := (*hNode)(o)
	for _, id := range n.h.order {
		if id == n.id {
			continue
		}
		n.h.post(n.id, id, data)
	}
}

func (o *hOut) Unicast(dest proto.NodeID, data []byte) {
	n := (*hNode)(o)
	if dest == n.id {
		return
	}
	n.h.post(n.id, dest, data)
}

func (h *harness) post(from, to proto.NodeID, data []byte) {
	if h.drop != nil && h.drop(from, to, data) {
		return
	}
	dst := h.machines[to]
	// Each receiver gets its own copy, which is scribbled over once
	// OnPacket returns: that is what a driver recycling the frame does, so
	// a machine retaining raw packet bytes fails here by corrupting data.
	buf := append([]byte(nil), data...)
	h.at(h.now+h.latency, func() {
		if dst.crashed {
			return
		}
		dst.m.OnPacket(h.now, buf)
		for i := range buf {
			buf[i] = 0xA5
		}
		dst.drain()
	})
}

func (h *harness) at(t proto.Time, fn func()) {
	h.seq++
	heap.Push(&h.events, &hEvent{at: t, seq: h.seq, fn: fn})
}

// drain executes non-send actions (timers, deliveries, configs); sends
// were already routed through Outbound synchronously.
func (n *hNode) drain() {
	for _, a := range n.acts.Drain() {
		switch act := a.(type) {
		case proto.SetTimer:
			n.tgen++
			gen := n.tgen
			id := act.ID
			n.timers[id] = gen
			n.h.at(n.h.now+act.After, func() {
				if n.crashed || n.timers[id] != gen {
					return
				}
				delete(n.timers, id)
				n.m.OnTimer(n.h.now, id)
				n.drain()
			})
		case proto.CancelTimer:
			delete(n.timers, act.ID)
		case *proto.Deliver:
			n.delivered = append(n.delivered, act.Msg)
		case proto.Config:
			n.configs = append(n.configs, act.Change)
		case proto.BulkSignal:
			n.bulkEvs = append(n.bulkEvs, act.Ev)
		case *proto.SendPacket:
			n.h.t.Fatalf("unexpected SendPacket action from bare SRP machine")
		}
	}
}

func (h *harness) start() {
	for _, id := range h.order {
		n := h.machines[id]
		h.at(h.now+time.Duration(id)*time.Millisecond, func() {
			n.m.Start(h.now)
			n.drain()
		})
	}
}

func (h *harness) run(d time.Duration) {
	deadline := h.now + d
	for len(h.events) > 0 && h.events[0].at <= deadline {
		e := heap.Pop(&h.events).(*hEvent)
		h.now = e.at
		e.fn()
	}
	if h.now < deadline {
		h.now = deadline
	}
}

func (h *harness) runUntil(cond func() bool, budget time.Duration) bool {
	deadline := h.now + budget
	for h.now < deadline {
		if cond() {
			return true
		}
		h.run(5 * time.Millisecond)
	}
	return cond()
}

func (h *harness) submit(id proto.NodeID, payload []byte) bool {
	n := h.machines[id]
	ok := n.m.Submit(h.now, payload)
	n.drain()
	return ok
}

func (h *harness) allOperational() bool {
	var ring proto.RingID
	first := true
	for _, id := range h.order {
		n := h.machines[id]
		if n.crashed {
			continue
		}
		if n.m.State() != StateOperational || len(n.m.Members()) != h.liveCount() {
			return false
		}
		if first {
			ring = n.m.Ring()
			first = false
		} else if n.m.Ring() != ring {
			return false
		}
	}
	return true
}

func (h *harness) liveCount() int {
	c := 0
	for _, id := range h.order {
		if !h.machines[id].crashed {
			c++
		}
	}
	return c
}

func (h *harness) waitRing(budget time.Duration) {
	h.t.Helper()
	if !h.runUntil(h.allOperational, budget) {
		for _, id := range h.order {
			n := h.machines[id]
			h.t.Logf("node %v: crashed=%v state=%v ring=%v members=%v",
				id, n.crashed, n.m.State(), n.m.Ring(), n.m.Members())
		}
		h.t.Fatalf("ring did not form within %v", budget)
	}
}
