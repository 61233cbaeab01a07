package totem

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/totem-rrp/totem/internal/bulk"
	"github.com/totem-rrp/totem/internal/proto"
)

// BulkOptions tunes the sender side of SendBulk. Zero fields take
// defaults. The receiver-side transfer size limit lives in Options.SRP.
type BulkOptions struct {
	// Workers is the number of goroutines submitting chunks concurrently
	// (default 2): while one blocks handing a chunk to the protocol loop,
	// another is already queueing the next.
	Workers int
}

func (o BulkOptions) withDefaults() BulkOptions {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	return o
}

// The sender-side transfer shape. Each windowed chunk is bulkChunkBytes
// long; the ring's packer fragments chunks onto the wire either way. At
// most bulkWindow chunks are unacknowledged at once, a chunk being
// acknowledged when the sender delivers its own copy — ring-wide evidence
// that every member ordered it. bulkRetries bounds one chunk's
// re-submissions under backpressure; exhausting it fails the transfer with
// ErrBulkRetries.
const (
	bulkChunkBytes = 8192
	bulkWindow     = 32
	bulkRetries    = 8
)

// Errors specific to bulk transfers.
var (
	// ErrBulkCancelled reports a transfer stopped by BulkTransfer.Cancel.
	ErrBulkCancelled = errors.New("totem: bulk transfer cancelled")
	// ErrBulkRetries reports a transfer that exhausted a chunk's retry
	// budget against sustained backpressure.
	ErrBulkRetries = bulk.ErrRetriesExhausted
)

// BulkTransfer is a handle on one in-flight SendBulk transfer.
type BulkTransfer struct {
	id    uint64
	total int64
	acked atomic.Int64

	done   chan struct{}
	err    error // written once, before done closes
	finish sync.Once

	cancel     chan struct{}
	cancelOnce sync.Once

	evs chan proto.BulkEvent
}

// ID returns the transfer's node-local identifier.
func (t *BulkTransfer) ID() uint64 { return t.id }

// Progress returns the contiguously acknowledged byte count and the total.
// Acknowledged bytes have been ordered by every current ring member; after
// a membership change the count can transiently move backwards to the last
// prefix the new configuration is known to hold.
func (t *BulkTransfer) Progress() (acked, total int64) {
	return t.acked.Load(), t.total
}

// Done returns a channel closed when the transfer completes or fails;
// check Err afterwards.
func (t *BulkTransfer) Done() <-chan struct{} { return t.done }

// Err returns nil for a completed transfer, or the terminal error. Only
// meaningful after Done is closed.
func (t *BulkTransfer) Err() error {
	select {
	case <-t.done:
		return t.err
	default:
		return nil
	}
}

// Cancel stops the transfer. Chunks already ordered by the ring are still
// delivered to receivers' reassembly state, but the transfer will never
// complete there; receivers drop the partial state when the sender leaves
// or on their partial-transfer limits. Idempotent.
func (t *BulkTransfer) Cancel() {
	t.cancelOnce.Do(func() { close(t.cancel) })
}

// send hands a signal to the manager, abandoning it if the transfer ends
// first — a resolved transfer must not wedge the dispatcher.
func (t *BulkTransfer) send(ev proto.BulkEvent) {
	select {
	case t.evs <- ev:
	case <-t.done:
	}
}

func (t *BulkTransfer) complete(err error) {
	t.finish.Do(func() {
		t.err = err
		close(t.done)
	})
}

// SendBulk streams payload to the ring on the rate-limited bulk lane and
// returns a handle tracking its progress. The transfer is chunked and
// window-flow-controlled: at most 32 chunks are unacknowledged at
// once, and the lane yields ring budget to Send traffic whenever other
// members have interactive backlog, so small-message latency survives a
// saturating transfer. Every member — the sender included — receives the
// completed transfer as one Delivery with Bulk set and the whole payload.
// Across membership changes the sender rewinds to its last contiguously
// acknowledged offset and re-sends; receivers deduplicate, so the transfer
// is delivered exactly once per member that stays.
//
// The payload is owned by the node until Done closes. On a multi-shard
// node the transfer runs on shard 0. SendBulk returns ErrConfig for an
// empty payload or one exceeding the receiver-side
// Options.SRP.MaxBulkTransfer limit.
func (n *Node) SendBulk(payload []byte) (*BulkTransfer, error) {
	if n.isClosed() {
		return nil, ErrClosed
	}
	if len(payload) == 0 {
		return nil, fmt.Errorf("%w: empty bulk payload", ErrConfig)
	}
	if len(payload) > n.bulkMax {
		return nil, fmt.Errorf("%w: bulk payload %d bytes exceeds MaxBulkTransfer %d", ErrConfig, len(payload), n.bulkMax)
	}
	t := &BulkTransfer{
		id:     n.bulkNextID.Add(1),
		total:  int64(len(payload)),
		done:   make(chan struct{}),
		cancel: make(chan struct{}),
		evs:    make(chan proto.BulkEvent, 2*bulkWindow+8),
	}
	n.bulkMu.Lock()
	if n.bulkXfers == nil {
		n.bulkXfers = make(map[uint64]*BulkTransfer)
	}
	n.bulkXfers[t.id] = t
	n.bulkMu.Unlock()
	go n.runBulkManager(t, payload)
	return t, nil
}

// bulkDispatch fans the runtime's bulk-signal stream out to the live
// transfers: acknowledgements by transfer id, reconfiguration notices to
// everyone. It runs for the node's lifetime and, when the stream closes
// (node Close), fails whatever transfers remain.
func (n *Node) bulkDispatch() {
	for ev := range n.out.Bulk.Out() {
		switch ev.Kind {
		case proto.BulkAcked:
			n.bulkMu.Lock()
			t := n.bulkXfers[ev.ID]
			n.bulkMu.Unlock()
			if t != nil {
				t.send(ev)
			}
		case proto.BulkReconfig:
			n.bulkMu.Lock()
			ts := make([]*BulkTransfer, 0, len(n.bulkXfers))
			for _, t := range n.bulkXfers {
				ts = append(ts, t)
			}
			n.bulkMu.Unlock()
			for _, t := range ts {
				t.send(ev)
			}
		}
	}
	close(n.bulkClosed)
}

// runBulkManager drives one transfer: it feeds a bounded worker pool from
// the window cursor, applies acknowledgements and reconfiguration rewinds
// to the send state, and resolves the handle. All SendState access stays
// on this goroutine; workers only push chunks into the protocol loop.
func (n *Node) runBulkManager(t *BulkTransfer, payload []byte) {
	s := bulk.NewSendState(len(payload), bulkChunkBytes, bulkWindow, bulkRetries)

	type result struct {
		idx int
		ok  bool
	}
	// The buffers only smooth throughput; correctness never depends on
	// their size because the manager hands work out inside its select and
	// so keeps draining results and acks even when both channels are full.
	// (A reconfiguration refills the window while pre-reconfig entries can
	// still be queued, so a blocking `work <-` here could deadlock against
	// workers blocked on a full results channel.)
	work := make(chan int, bulkWindow)
	results := make(chan result, bulkWindow)
	var wg sync.WaitGroup
	for w := 0; w < n.bulkOpts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				off, end := s.Range(i)
				ok := n.rts[0].SubmitBulk(t.id, uint64(off), uint64(len(payload)), payload[off:end])
				if !ok {
					// Backpressure: the lane queue is full. Back off before
					// reporting so the retry does not spin against it.
					time.Sleep(200 * time.Microsecond)
				}
				results <- result{i, ok}
			}
		}()
	}

	finish := func(err error) {
		n.bulkMu.Lock()
		delete(n.bulkXfers, t.id)
		n.bulkMu.Unlock()
		t.complete(err)
		close(work)
		go func() {
			wg.Wait()
			close(results)
		}()
		for range results {
		}
	}

	// todo holds window slots claimed from the cursor but not yet handed to
	// a worker. headOut is true while chunk 0 — the chunk receivers open the
	// transfer on — is with a worker: nothing else is handed out until the
	// protocol loop has accepted it, or a second worker could get a later
	// chunk ordered first and every receiver would skip the transfer as one
	// it joined mid-way, while the sender's own acks reported success.
	var todo []int
	headOut := false
	for {
		if err := s.Err(); err != nil {
			finish(err)
			return
		}
		if s.Done() {
			t.acked.Store(t.total)
			finish(nil)
			return
		}
		for {
			i, ok := s.Next()
			if !ok {
				break
			}
			if i == 0 {
				todo = append([]int{0}, todo...) // a retried head still goes first
			} else {
				todo = append(todo, i)
			}
		}
		var workCh chan int
		var next int
		if len(todo) > 0 && !headOut {
			workCh = work
			next = todo[0]
		}
		select {
		case workCh <- next:
			todo = todo[1:]
			headOut = next == 0
		case ev := <-t.evs:
			switch ev.Kind {
			case proto.BulkAcked:
				s.Ack(s.ChunkAt(int(ev.Offset)))
				acked, _ := s.Progress()
				t.acked.Store(int64(acked))
			case proto.BulkReconfig:
				// Unhanded slots go back through the cursor with everything
				// else the rewind requeues.
				todo = todo[:0]
				s.Reconfig()
				acked, _ := s.Progress()
				t.acked.Store(int64(acked))
			}
		case res := <-results:
			if res.idx == 0 {
				headOut = false
			}
			if !res.ok {
				s.Fail(res.idx) // requeues, or poisons s.Err on budget exhaustion
			}
		case <-t.cancel:
			finish(ErrBulkCancelled)
			return
		case <-n.bulkClosed:
			finish(ErrClosed)
			return
		}
	}
}
