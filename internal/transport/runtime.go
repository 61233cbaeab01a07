package transport

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/totem-rrp/totem/internal/proto"
	"github.com/totem-rrp/totem/internal/stack"
	"github.com/totem-rrp/totem/internal/trace"
	"github.com/totem-rrp/totem/internal/wire"
)

// Runtime drives one stack.Node in real time: a single goroutine
// serialises packets, timer expirations and submissions into the pure
// state machine and executes the resulting actions against the transport
// and wall-clock timers. Application-facing events are forwarded on
// unbounded queues so a slow consumer can never stall the token ring.
type Runtime struct {
	stack *stack.Node
	tr    Transport
	// flush, when non-nil, is the transport's batch-flush hook: execute
	// calls it once per action batch that sent anything, so the batched
	// wire path coalesces a whole token visit into one kernel entry.
	flush func()
	epoch time.Time
	// sent is execute's reusable scratch of pooled frames to release once
	// the batch completes (only touched by the loop goroutine).
	sent [][]byte

	// tracer, when non-nil, receives typed events from the loop goroutine
	// and the stack's probe hook. Set before Start; nil costs one branch
	// per site.
	tracer trace.Tracer
	// deliveryTap, when non-nil, observes every delivery synchronously on
	// the loop goroutine before it is queued for the application. Set
	// before Start; it must not block.
	deliveryTap func(proto.Delivery)
	id          proto.NodeID

	events chan runtimeEvent
	// submitRejected counts Submit calls refused by SRP backpressure.
	submitRejected atomic.Uint64

	timerMu  sync.Mutex
	timerGen map[proto.TimerID]uint64
	nextGen  uint64
	timers   map[proto.TimerID]*time.Timer

	deliveries *queue[proto.Delivery]
	faults     *queue[proto.FaultReport]
	cleared    *queue[proto.ClearReport]
	configs    *queue[proto.ConfigChange]
	bulkEvs    *queue[proto.BulkEvent]

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

type runtimeEvent struct {
	pkt    *Packet
	timer  *timerFire
	submit *submitReq
	query  func()
}

type timerFire struct {
	id  proto.TimerID
	gen uint64
}

type submitReq struct {
	payload []byte
	bulk    *bulkChunk
	reply   chan bool
}

// bulkChunk is one windowed piece of a bulk transfer bound for the
// rate-limited lane.
type bulkChunk struct {
	id, off, total uint64
	data           []byte
}

// NewRuntime wires a stack to a transport. Call Start to begin.
func NewRuntime(st *stack.Node, tr Transport) *Runtime {
	r := &Runtime{
		stack:      st,
		tr:         tr,
		id:         st.ID(),
		events:     make(chan runtimeEvent, 256),
		timerGen:   make(map[proto.TimerID]uint64),
		timers:     make(map[proto.TimerID]*time.Timer),
		deliveries: newQueue[proto.Delivery](),
		faults:     newQueue[proto.FaultReport](),
		cleared:    newQueue[proto.ClearReport](),
		configs:    newQueue[proto.ConfigChange](),
		bulkEvs:    newQueue[proto.BulkEvent](),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	reg := st.Metrics()
	reg.RegisterFunc("runtime.events_depth", func() int64 { return int64(len(r.events)) })
	reg.RegisterFunc("runtime.deliveries_depth", r.deliveries.depth)
	reg.RegisterFunc("runtime.faults_depth", r.faults.depth)
	reg.RegisterFunc("runtime.cleared_depth", r.cleared.depth)
	reg.RegisterFunc("runtime.configs_depth", r.configs.depth)
	reg.RegisterFunc("runtime.bulk_depth", r.bulkEvs.depth)
	reg.RegisterFunc("runtime.submit_rejected", func() int64 { return int64(r.submitRejected.Load()) })
	if ms, ok := tr.(MetricSource); ok {
		ms.RegisterMetrics(reg)
	}
	if bs, ok := tr.(BatchSender); ok {
		r.flush = bs.Flush
	}
	return r
}

// SetTracer installs a tracer for the runtime's packet/timer/delivery
// events and the stack's machine probes. Must be called before Start; the
// tracer must be safe for concurrent use if the caller also reads it
// (trace.Ring is).
func (r *Runtime) SetTracer(tr trace.Tracer) {
	r.tracer = tr
}

// SetDeliveryTap installs a synchronous observer for every delivery,
// invoked on the loop goroutine before the delivery is queued for the
// application. Must be called before Start; the tap must not block (it
// stalls the token ring if it does). The conformance harness uses it to
// feed the torture checker in protocol order, unperturbed by the
// application-facing queue.
func (r *Runtime) SetDeliveryTap(tap func(proto.Delivery)) {
	r.deliveryTap = tap
}

// Start boots the protocol stack and the event loop.
func (r *Runtime) Start() {
	r.epoch = time.Now()
	if r.tracer != nil {
		// Machine probes fire synchronously inside stack calls, which the
		// loop goroutine serialises, so stamping wall-clock time here is
		// race-free.
		r.stack.SetProbe(func(e proto.ProbeEvent) {
			r.tracer.Record(trace.Event{
				At: r.now(), Node: r.id, Kind: trace.Machine,
				Code: e.Code, Network: e.Network, A: e.A, B: e.B, C: e.C,
			})
		})
	}
	go r.loop()
}

func (r *Runtime) now() proto.Time { return time.Since(r.epoch) }

func (r *Runtime) loop() {
	defer close(r.done)
	r.execute(r.stack.Start(r.now()))
	packets := r.tr.Packets()
	for {
		select {
		case <-r.stop:
			return
		case pkt, ok := <-packets:
			if !ok {
				return
			}
			if r.tracer != nil {
				kind, _ := wire.PeekKind(pkt.Data)
				r.tracer.Record(trace.Event{
					At: r.now(), Node: r.id, Kind: trace.PacketReceived, Network: pkt.Network,
					A: int64(kind), C: int64(len(pkt.Data)),
				})
			}
			r.execute(r.stack.OnPacket(r.now(), pkt.Network, pkt.Data))
			// The stack copies what it keeps from a data frame (decoded
			// packets, not raw bytes), so the receive buffer can rejoin
			// the pool. Token frames may be retained by the replicator
			// and are skipped by the kind check.
			wire.ReleaseFrame(pkt.Data)
		case ev := <-r.events:
			switch {
			case ev.timer != nil:
				if r.takeTimer(ev.timer) {
					if r.tracer != nil {
						r.tracer.Record(trace.Event{
							At: r.now(), Node: r.id, Kind: trace.TimerFired, Network: -1,
							A: int64(ev.timer.id.Class), B: int64(ev.timer.id.Arg),
						})
					}
					r.execute(r.stack.OnTimer(r.now(), ev.timer.id))
				}
			case ev.submit != nil:
				var (
					ok   bool
					acts []proto.Action
				)
				if b := ev.submit.bulk; b != nil {
					ok, acts = r.stack.SubmitBulk(r.now(), b.id, b.off, b.total, b.data)
				} else {
					ok, acts = r.stack.Submit(r.now(), ev.submit.payload)
					if !ok {
						r.submitRejected.Add(1)
					}
				}
				r.execute(acts)
				ev.submit.reply <- ok
			case ev.query != nil:
				ev.query()
			}
		}
	}
}

// takeTimer validates a timer firing against cancellation/re-arming.
func (r *Runtime) takeTimer(tf *timerFire) bool {
	r.timerMu.Lock()
	defer r.timerMu.Unlock()
	if r.timerGen[tf.id] != tf.gen {
		return false
	}
	delete(r.timerGen, tf.id)
	delete(r.timers, tf.id)
	return true
}

func (r *Runtime) execute(actions []proto.Action) {
	sentAny := false
	for _, a := range actions {
		switch act := a.(type) {
		case *proto.SendPacket:
			sentAny = true
			// Send errors are deliberately absorbed: a dead network is
			// exactly what the RRP monitors are there to detect.
			r.tr.Send(act.Network, act.Dest, act.Data) //nolint:errcheck
			if r.tracer != nil {
				kind, _ := wire.PeekKind(act.Data)
				r.tracer.Record(trace.Event{
					At: r.now(), Node: r.id, Kind: trace.PacketSent, Network: act.Network,
					A: int64(kind), B: int64(act.Dest), C: int64(len(act.Data)),
				})
			}
			r.noteSent(act.Data)
		case proto.SetTimer:
			r.setTimer(act.ID, act.After)
		case proto.CancelTimer:
			r.cancelTimer(act.ID)
		case *proto.Deliver:
			if r.deliveryTap != nil {
				r.deliveryTap(act.Msg)
			}
			if r.tracer != nil {
				r.tracer.Record(trace.Event{
					At: r.now(), Node: r.id, Kind: trace.Delivered, Network: -1,
					A: int64(act.Msg.Seq), B: int64(act.Msg.Sender), C: int64(len(act.Msg.Payload)),
				})
			}
			r.deliveries.push(act.Msg)
		case proto.Fault:
			if r.tracer != nil {
				r.tracer.Record(trace.Event{
					At: r.now(), Node: r.id, Kind: trace.FaultRaised,
					Network: act.Report.Network, Detail: act.Report.Reason,
				})
			}
			r.faults.push(act.Report)
		case proto.FaultCleared:
			if r.tracer != nil {
				r.tracer.Record(trace.Event{
					At: r.now(), Node: r.id, Kind: trace.FaultCleared,
					Network: act.Report.Network, A: int64(act.Report.Probation),
				})
			}
			r.cleared.push(act.Report)
		case proto.Config:
			if r.tracer != nil {
				detail := ""
				if act.Change.Transitional {
					detail = "transitional"
				}
				r.tracer.Record(trace.Event{
					At: r.now(), Node: r.id, Kind: trace.ConfigChanged, Network: -1,
					A: int64(act.Change.Ring.Rep), B: int64(act.Change.Ring.Epoch),
					C: int64(len(act.Change.Members)), Detail: detail,
				})
			}
			r.configs.push(act.Change)
		case proto.BulkSignal:
			r.bulkEvs.push(act.Ev)
		}
	}
	// One kernel visit per action batch: everything this batch queued on a
	// batching transport (a token visit's worth of fan-out) leaves now.
	if sentAny && r.flush != nil {
		r.flush()
	}
	// Both transports copy outbound bytes during Send (into the kernel or
	// into per-receiver pooled frames), so once the batch has executed the
	// distinct data frames it referenced can rejoin the pool and the batch
	// itself can be reused.
	for _, b := range r.sent {
		wire.ReleaseFrame(b)
	}
	r.sent = r.sent[:0]
	r.stack.Recycle(actions)
}

// noteSent records a pooled data frame for release after the batch,
// deduplicating the same buffer fanned out to several networks.
func (r *Runtime) noteSent(data []byte) {
	if len(data) == 0 || cap(data) != wire.FrameCap {
		return
	}
	p := &data[0]
	for _, b := range r.sent {
		if &b[0] == p {
			return
		}
	}
	r.sent = append(r.sent, data)
}

func (r *Runtime) setTimer(id proto.TimerID, after time.Duration) {
	r.timerMu.Lock()
	defer r.timerMu.Unlock()
	if t, ok := r.timers[id]; ok {
		t.Stop()
	}
	r.nextGen++
	gen := r.nextGen
	r.timerGen[id] = gen
	r.timers[id] = time.AfterFunc(after, func() {
		select {
		case r.events <- runtimeEvent{timer: &timerFire{id: id, gen: gen}}:
		case <-r.stop:
		}
	})
}

func (r *Runtime) cancelTimer(id proto.TimerID) {
	r.timerMu.Lock()
	defer r.timerMu.Unlock()
	if t, ok := r.timers[id]; ok {
		t.Stop()
		delete(r.timers, id)
	}
	delete(r.timerGen, id)
}

// Submit queues an application message, returning false under
// backpressure or after Close.
func (r *Runtime) Submit(payload []byte) bool {
	req := &submitReq{payload: payload, reply: make(chan bool, 1)}
	select {
	case r.events <- runtimeEvent{submit: req}:
	case <-r.stop:
		return false
	}
	select {
	case ok := <-req.reply:
		return ok
	case <-r.stop:
		return false
	}
}

// SubmitBulk queues one chunk of a bulk transfer on the rate-limited bulk
// lane, returning false under backpressure or after Close. The chunk is
// copied into the lane's recycled envelope buffers before this returns, so
// the caller may reuse data immediately.
func (r *Runtime) SubmitBulk(id, off, total uint64, data []byte) bool {
	req := &submitReq{bulk: &bulkChunk{id: id, off: off, total: total, data: data}, reply: make(chan bool, 1)}
	select {
	case r.events <- runtimeEvent{submit: req}:
	case <-r.stop:
		return false
	}
	select {
	case ok := <-req.reply:
		return ok
	case <-r.stop:
		return false
	}
}

// Inspect runs fn inside the event loop, giving it exclusive, race-free
// access to the stack (for state snapshots).
func (r *Runtime) Inspect(fn func(*stack.Node)) bool {
	done := make(chan struct{})
	q := func() {
		fn(r.stack)
		close(done)
	}
	select {
	case r.events <- runtimeEvent{query: q}:
	case <-r.stop:
		return false
	}
	select {
	case <-done:
		return true
	case <-r.stop:
		return false
	}
}

// Mutate runs fn inside the event loop like Inspect, then executes the
// actions it returns — for hooks that change stack state and emit timers
// or probes (the torture harness's state-corruption injector). Inspect is
// NOT a substitute: it discards actions, so a mutation that arms a timer
// would silently lose it.
func (r *Runtime) Mutate(fn func(proto.Time, *stack.Node) []proto.Action) bool {
	done := make(chan struct{})
	q := func() {
		r.execute(fn(r.now(), r.stack))
		close(done)
	}
	select {
	case r.events <- runtimeEvent{query: q}:
	case <-r.stop:
		return false
	}
	select {
	case <-done:
		return true
	case <-r.stop:
		return false
	}
}

// Deliveries returns the totally-ordered message stream.
func (r *Runtime) Deliveries() <-chan proto.Delivery { return r.deliveries.out }

// Faults returns the network fault-report stream.
func (r *Runtime) Faults() <-chan proto.FaultReport { return r.faults.out }

// Cleared returns the stream of automatic readmission reports.
func (r *Runtime) Cleared() <-chan proto.ClearReport { return r.cleared.out }

// Configs returns the membership configuration-change stream.
func (r *Runtime) Configs() <-chan proto.ConfigChange { return r.configs.out }

// BulkEvents returns the bulk-lane signal stream: per-chunk ring-wide
// acknowledgements and configuration-change rewind notices, in protocol
// order.
func (r *Runtime) BulkEvents() <-chan proto.BulkEvent { return r.bulkEvs.out }

// Close stops the loop, all timers and the event queues. It does not
// close the transport (the caller owns it).
func (r *Runtime) Close() {
	r.stopOnce.Do(func() {
		close(r.stop)
		<-r.done
		r.timerMu.Lock()
		for _, t := range r.timers {
			t.Stop()
		}
		r.timerMu.Unlock()
		r.deliveries.close()
		r.faults.close()
		r.cleared.close()
		r.configs.close()
		r.bulkEvs.close()
	})
}

// queue is an unbounded FIFO bridging the protocol loop to a consumer
// channel: pushes never block, so a slow application cannot stall the
// ring.
type queue[T any] struct {
	mu   sync.Mutex
	buf  []T
	wake chan struct{}
	quit chan struct{}
	out  chan T
}

func newQueue[T any]() *queue[T] {
	q := &queue[T]{
		wake: make(chan struct{}, 1),
		quit: make(chan struct{}),
		out:  make(chan T),
	}
	go q.pump()
	return q
}

// depth reports the number of buffered, unconsumed entries (a gauge for
// backpressure monitoring).
func (q *queue[T]) depth() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return int64(len(q.buf))
}

func (q *queue[T]) push(v T) {
	q.mu.Lock()
	q.buf = append(q.buf, v)
	q.mu.Unlock()
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

func (q *queue[T]) pump() {
	defer close(q.out)
	for {
		q.mu.Lock()
		var (
			v  T
			ok bool
		)
		if len(q.buf) > 0 {
			v, ok = q.buf[0], true
			q.buf = q.buf[1:]
		}
		q.mu.Unlock()
		if !ok {
			select {
			case <-q.wake:
				continue
			case <-q.quit:
				return
			}
		}
		select {
		case q.out <- v:
		case <-q.quit:
			return
		}
	}
}

func (q *queue[T]) close() { close(q.quit) }
