package transport

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/totem-rrp/totem/internal/metrics"
	"github.com/totem-rrp/totem/internal/proto"
	"github.com/totem-rrp/totem/internal/stack"
	"github.com/totem-rrp/totem/internal/trace"
	"github.com/totem-rrp/totem/internal/wire"
)

// Runtime drives one stack.Node in real time: a single goroutine
// serialises packets, timer expirations and submissions into the pure
// state machine and executes the resulting actions against the transport
// and wall-clock timers. Application-facing events are pushed onto the
// caller's Outputs, whose unbounded queues mean a slow consumer can never
// stall the token ring.
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
	// shard tags every event this runtime pushes (0 on a single ring).
	shard int
	out   Outputs

	// events carries timer firings and calls into the loop goroutine.
	events chan func()
	// submitRejected counts Submit calls refused by SRP backpressure.
	submitRejected atomic.Uint64

	timerMu  sync.Mutex
	timerGen map[proto.TimerID]uint64
	nextGen  uint64
	timers   map[proto.TimerID]*time.Timer

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// Outputs are the application-facing event queues one or more runtimes
// push onto. A multi-ring node shares one set among all its runtimes, so
// its streams are the same queues whatever the shard count.
type Outputs struct {
	Deliveries *Queue[proto.Delivery]
	Faults     *Queue[proto.FaultReport]
	Cleared    *Queue[proto.ClearReport]
	Configs    *Queue[proto.ConfigChange]
	// Bulk may be nil: the runtime then drops bulk-lane signals.
	Bulk *Queue[proto.BulkEvent]
}

// NewOutputs makes one set of empty queues.
func NewOutputs() Outputs {
	return Outputs{
		Deliveries: NewQueue[proto.Delivery](),
		Faults:     NewQueue[proto.FaultReport](),
		Cleared:    NewQueue[proto.ClearReport](),
		Configs:    NewQueue[proto.ConfigChange](),
		Bulk:       NewQueue[proto.BulkEvent](),
	}
}

// RegisterMetrics registers the queues' depth gauges
// ("runtime.deliveries_depth", ...) into reg.
func (o Outputs) RegisterMetrics(reg *metrics.Registry) {
	reg.RegisterFunc("runtime.deliveries_depth", o.Deliveries.Depth)
	reg.RegisterFunc("runtime.faults_depth", o.Faults.Depth)
	reg.RegisterFunc("runtime.cleared_depth", o.Cleared.Depth)
	reg.RegisterFunc("runtime.configs_depth", o.Configs.Depth)
	reg.RegisterFunc("runtime.bulk_depth", o.Bulk.Depth)
}

// Close closes every queue: their channels close and unconsumed entries
// are dropped.
func (o Outputs) Close() {
	o.Deliveries.Close()
	o.Faults.Close()
	o.Cleared.Close()
	o.Configs.Close()
	o.Bulk.Close()
}

// NewRuntime wires a stack to a transport; its events go to out, tagged
// with shard. Call Start to begin.
func NewRuntime(st *stack.Node, tr Transport, shard int, out Outputs) *Runtime {
	r := &Runtime{
		stack:    st,
		tr:       tr,
		id:       st.ID(),
		shard:    shard,
		out:      out,
		events:   make(chan func(), 256),
		timerGen: make(map[proto.TimerID]uint64),
		timers:   make(map[proto.TimerID]*time.Timer),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	reg := st.Metrics()
	reg.RegisterFunc("runtime.events_depth", func() int64 { return int64(len(r.events)) })
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
		case fn := <-r.events:
			fn()
		}
	}
}

// fireTimer runs an expired timer unless it was cancelled or re-armed
// since it was set.
func (r *Runtime) fireTimer(id proto.TimerID, gen uint64) {
	if !r.takeTimer(id, gen) {
		return
	}
	if r.tracer != nil {
		r.tracer.Record(trace.Event{
			At: r.now(), Node: r.id, Kind: trace.TimerFired, Network: -1,
			A: int64(id.Class), B: int64(id.Arg),
		})
	}
	r.execute(r.stack.OnTimer(r.now(), id))
}

// takeTimer validates a timer firing against cancellation/re-arming.
func (r *Runtime) takeTimer(id proto.TimerID, gen uint64) bool {
	r.timerMu.Lock()
	defer r.timerMu.Unlock()
	if r.timerGen[id] != gen {
		return false
	}
	delete(r.timerGen, id)
	delete(r.timers, id)
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
		case *proto.SetTimer:
			r.setTimer(act.ID, act.After)
		case *proto.CancelTimer:
			r.cancelTimer(act.ID)
		case *proto.Deliver:
			act.Msg.Shard = r.shard
			if r.deliveryTap != nil {
				r.deliveryTap(act.Msg)
			}
			if r.tracer != nil {
				r.tracer.Record(trace.Event{
					At: r.now(), Node: r.id, Kind: trace.Delivered, Network: -1,
					A: int64(act.Msg.Seq), B: int64(act.Msg.Sender), C: int64(len(act.Msg.Payload)),
				})
			}
			r.out.Deliveries.Push(act.Msg)
		case proto.Fault:
			act.Report.Shard = r.shard
			if r.tracer != nil {
				r.tracer.Record(trace.Event{
					At: r.now(), Node: r.id, Kind: trace.FaultRaised,
					Network: act.Report.Network, Detail: act.Report.Reason,
				})
			}
			r.out.Faults.Push(act.Report)
		case proto.FaultCleared:
			act.Report.Shard = r.shard
			if r.tracer != nil {
				r.tracer.Record(trace.Event{
					At: r.now(), Node: r.id, Kind: trace.FaultCleared,
					Network: act.Report.Network, A: int64(act.Report.Probation),
				})
			}
			r.out.Cleared.Push(act.Report)
		case proto.Config:
			act.Change.Shard = r.shard
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
			r.out.Configs.Push(act.Change)
		case proto.BulkSignal:
			if r.out.Bulk != nil {
				r.out.Bulk.Push(act.Ev)
			}
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
		case r.events <- func() { r.fireTimer(id, gen) }:
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

// call runs fn on the loop goroutine and waits for it to return,
// reporting false if the runtime stopped first.
func (r *Runtime) call(fn func()) bool {
	done := make(chan struct{})
	select {
	case r.events <- func() { fn(); close(done) }:
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

// Submit queues an application message, returning false under
// backpressure or after Close.
func (r *Runtime) Submit(payload []byte) bool {
	ok := false
	return r.call(func() {
		var acts []proto.Action
		ok, acts = r.stack.Submit(r.now(), payload)
		if !ok {
			r.submitRejected.Add(1)
		}
		r.execute(acts)
	}) && ok
}

// SubmitBulk queues one chunk of a bulk transfer on the rate-limited bulk
// lane, returning false under backpressure or after Close. The chunk is
// copied into the lane's recycled envelope buffers before this returns, so
// the caller may reuse data immediately.
func (r *Runtime) SubmitBulk(id, off, total uint64, data []byte) bool {
	ok := false
	return r.call(func() {
		var acts []proto.Action
		ok, acts = r.stack.SubmitBulk(r.now(), id, off, total, data)
		r.execute(acts)
	}) && ok
}

// Inspect runs fn inside the event loop, giving it exclusive, race-free
// access to the stack (for state snapshots).
func (r *Runtime) Inspect(fn func(*stack.Node)) bool {
	return r.Mutate(func(_ proto.Time, st *stack.Node) []proto.Action {
		fn(st)
		return nil
	})
}

// Mutate runs fn inside the event loop, then executes the actions it
// returns — for hooks that change stack state and emit timers or probes
// (the torture harness's state-corruption injector).
func (r *Runtime) Mutate(fn func(proto.Time, *stack.Node) []proto.Action) bool {
	return r.call(func() { r.execute(fn(r.now(), r.stack)) })
}

// Close stops the loop and all timers. It closes neither the transport
// nor the Outputs (the caller owns both).
func (r *Runtime) Close() {
	r.stopOnce.Do(func() {
		close(r.stop)
		<-r.done
		r.timerMu.Lock()
		for _, t := range r.timers {
			t.Stop()
		}
		r.timerMu.Unlock()
	})
}

// Queue is an unbounded FIFO bridging protocol loops to a consumer
// channel: pushes never block, so a slow application cannot stall the
// ring, and nothing pushed is shed — a consumer that stops reading
// buffers entries in memory and receives every one, in push order, once
// it resumes. Push is safe from any number of goroutines.
type Queue[T any] struct {
	mu   sync.Mutex
	buf  []T
	wake chan struct{}
	quit chan struct{}
	once sync.Once
	out  chan T
}

// NewQueue makes an empty queue and starts its pump goroutine, which
// runs until Close.
func NewQueue[T any]() *Queue[T] {
	q := &Queue[T]{
		wake: make(chan struct{}, 1),
		quit: make(chan struct{}),
		out:  make(chan T),
	}
	go q.pump()
	return q
}

// Out returns the consumer channel; it closes after Close.
func (q *Queue[T]) Out() <-chan T { return q.out }

// Depth reports the number of buffered, unconsumed entries (a gauge for
// backpressure monitoring).
func (q *Queue[T]) Depth() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return int64(len(q.buf))
}

// Push appends v without blocking.
func (q *Queue[T]) Push(v T) {
	q.mu.Lock()
	q.buf = append(q.buf, v)
	q.mu.Unlock()
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

func (q *Queue[T]) pump() {
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

// Close stops the pump and closes Out, dropping the entries still
// buffered (a receiver may still get the one entry the pump holds).
// Idempotent.
func (q *Queue[T]) Close() { q.once.Do(func() { close(q.quit) }) }
