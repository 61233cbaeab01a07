package totem_test

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	totem "github.com/totem-rrp/totem"
)

func bulkTestPayload(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*37 + i>>10)
	}
	return p
}

// collectBulk drains a node's deliveries until a Bulk delivery from sender
// arrives or the deadline passes.
func collectBulk(t *testing.T, n *totem.Node, sender totem.NodeID, budget time.Duration) totem.Delivery {
	t.Helper()
	deadline := time.After(budget)
	for {
		select {
		case d, ok := <-n.Deliveries():
			if !ok {
				t.Fatalf("node %v: deliveries closed before bulk transfer arrived", n.ID())
			}
			if d.Bulk && d.Sender == sender {
				return d
			}
		case <-deadline:
			t.Fatalf("node %v: no bulk delivery within %v", n.ID(), budget)
		}
	}
}

// TestSendBulkDeliversEverywhere streams a multi-chunk transfer through a
// three-node MemHub ring: the handle completes, progress reaches the
// total, and every member (sender included) receives the payload
// byte-exact as a single Bulk delivery.
func TestSendBulkDeliversEverywhere(t *testing.T) {
	_, nodes := startRing(t, 3, 2, totem.Active)
	payload := bulkTestPayload(300 << 10) // ~37 chunks at the default 8 KiB

	xfer, err := nodes[0].SendBulk(payload)
	if err != nil {
		t.Fatalf("SendBulk: %v", err)
	}
	select {
	case <-xfer.Done():
	case <-time.After(20 * time.Second):
		acked, total := xfer.Progress()
		t.Fatalf("transfer did not complete: %d/%d bytes acked", acked, total)
	}
	if err := xfer.Err(); err != nil {
		t.Fatalf("transfer failed: %v", err)
	}
	if acked, total := xfer.Progress(); acked != total || total != int64(len(payload)) {
		t.Fatalf("progress %d/%d, want %d/%d", acked, total, len(payload), len(payload))
	}

	for _, n := range nodes {
		d := collectBulk(t, n, 1, 15*time.Second)
		if !bytes.Equal(d.Payload, payload) {
			t.Fatalf("node %v: bulk payload mismatch (%d bytes, want %d)", n.ID(), len(d.Payload), len(payload))
		}
	}
}

// TestSendBulkDoesNotStarveInteractiveSends runs interactive Sends
// concurrently with a saturating transfer and requires every one of them
// to be delivered — the lane-yield mechanism must keep the interactive
// lane live under bulk load.
func TestSendBulkDoesNotStarveInteractiveSends(t *testing.T) {
	_, nodes := startRing(t, 3, 2, totem.Active)
	payload := bulkTestPayload(256 << 10)

	xfer, err := nodes[0].SendBulk(payload)
	if err != nil {
		t.Fatalf("SendBulk: %v", err)
	}

	const interactive = 50
	go func() {
		for i := 0; i < interactive; i++ {
			msg := []byte{byte(i)}
			for nodes[1].Send(msg) != nil {
				time.Sleep(time.Millisecond)
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()

	seen := make(map[byte]bool)
	gotBulk := false
	deadline := time.After(30 * time.Second)
	for len(seen) < interactive || !gotBulk {
		select {
		case d := <-nodes[2].Deliveries():
			if d.Bulk {
				gotBulk = true
			} else if d.Sender == 2 && len(d.Payload) == 1 {
				seen[d.Payload[0]] = true
			}
		case <-deadline:
			t.Fatalf("starved: %d/%d interactive messages, bulk=%v", len(seen), interactive, gotBulk)
		}
	}
	select {
	case <-xfer.Done():
		if err := xfer.Err(); err != nil {
			t.Fatalf("transfer failed: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("transfer did not complete")
	}
}

// TestSendBulkValidation covers the early rejections: empty payloads,
// payloads over the receiver-side cap, and closed nodes.
func TestSendBulkValidation(t *testing.T) {
	hub := totem.NewMemHub(1)
	tr, err := hub.Join(1)
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	node, err := totem.NewNode(totem.Config{
		ID: 1, Networks: 1, Replication: totem.NoReplication,
		Tune: func(o *totem.Options) { o.SRP.MaxBulkTransfer = 1 << 20 },
	}, tr)
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}

	if _, err := node.SendBulk(nil); !errors.Is(err, totem.ErrConfig) {
		t.Fatalf("empty payload: err=%v, want ErrConfig", err)
	}
	if _, err := node.SendBulk(make([]byte, 1<<20+1)); !errors.Is(err, totem.ErrConfig) {
		t.Fatalf("oversized payload: err=%v, want ErrConfig", err)
	}
	node.Close()
	if _, err := node.SendBulk([]byte("x")); !errors.Is(err, totem.ErrClosed) {
		t.Fatalf("closed node: err=%v, want ErrClosed", err)
	}
}

// TestSendBulkCancelAndClose checks that Cancel resolves the handle with
// ErrBulkCancelled and that Close fails still-running transfers with
// ErrClosed instead of leaking their goroutines.
func TestSendBulkCancelAndClose(t *testing.T) {
	_, nodes := startRing(t, 2, 1, totem.NoReplication)

	xfer, err := nodes[0].SendBulk(bulkTestPayload(4 << 20))
	if err != nil {
		t.Fatalf("SendBulk: %v", err)
	}
	xfer.Cancel()
	select {
	case <-xfer.Done():
		if !errors.Is(xfer.Err(), totem.ErrBulkCancelled) {
			t.Fatalf("cancelled transfer: err=%v, want ErrBulkCancelled", xfer.Err())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("Cancel did not resolve the handle")
	}

	xfer2, err := nodes[0].SendBulk(bulkTestPayload(4 << 20))
	if err != nil {
		t.Fatalf("SendBulk: %v", err)
	}
	nodes[0].Close()
	select {
	case <-xfer2.Done():
		if !errors.Is(xfer2.Err(), totem.ErrClosed) {
			t.Fatalf("transfer on closed node: err=%v, want ErrClosed", xfer2.Err())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("Close did not resolve the in-flight transfer")
	}
}

// TestSendBulkSingleton covers the degenerate one-node ring: the transfer
// self-acks chunk by chunk and the sender delivers its own payload.
func TestSendBulkSingleton(t *testing.T) {
	_, nodes := startRing(t, 1, 1, totem.NoReplication)
	payload := bulkTestPayload(100 << 10)
	xfer, err := nodes[0].SendBulk(payload)
	if err != nil {
		t.Fatalf("SendBulk: %v", err)
	}
	select {
	case <-xfer.Done():
	case <-time.After(15 * time.Second):
		acked, total := xfer.Progress()
		t.Fatalf("singleton transfer stuck at %d/%d", acked, total)
	}
	if err := xfer.Err(); err != nil {
		t.Fatalf("transfer failed: %v", err)
	}
	d := collectBulk(t, nodes[0], 1, 10*time.Second)
	if !bytes.Equal(d.Payload, payload) {
		t.Fatalf("payload mismatch")
	}
}

// TestSendBulkWorkersKeepChunkZeroFirst is the regression test for the
// submit-worker race: with several workers, chunk 1 could be ordered before
// chunk 0, every receiver then skipped the transfer as one it had joined
// mid-way, and the sender still reported success. 200 back-to-back
// multi-chunk transfers with Workers: 4 must each arrive on every node.
func TestSendBulkWorkersKeepChunkZeroFirst(t *testing.T) {
	const (
		members   = 3
		transfers = 200
	)
	hub := totem.NewMemHub(2)
	var got [members]atomic.Int64
	nodes := make([]*totem.Node, members)
	for i := range nodes {
		tr, err := hub.Join(totem.NodeID(i + 1))
		if err != nil {
			t.Fatalf("Join: %v", err)
		}
		n, err := totem.NewNode(totem.Config{
			ID:          totem.NodeID(i + 1),
			Networks:    2,
			Replication: totem.Active,
			Tune: func(o *totem.Options) {
				o.Bulk.Workers = 4
				o.DeliveryTap = func(d totem.Delivery) {
					if d.Bulk {
						got[i].Add(1)
					}
				}
			},
		}, tr)
		if err != nil {
			t.Fatalf("NewNode: %v", err)
		}
		t.Cleanup(func() { n.Close() })
		go func() {
			for range n.Deliveries() {
			}
		}()
		nodes[i] = n
	}
	waitFullRing(t, nodes, members, 15*time.Second)

	payload := bulkTestPayload(3 * 8192) // three chunks at the default size
	for x := 0; x < transfers; x++ {
		xfer, err := nodes[0].SendBulk(payload)
		if err != nil {
			t.Fatalf("transfer %d: SendBulk: %v", x, err)
		}
		select {
		case <-xfer.Done():
		case <-time.After(20 * time.Second):
			t.Fatalf("transfer %d did not complete", x)
		}
		if err := xfer.Err(); err != nil {
			t.Fatalf("transfer %d failed: %v", x, err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for i := range got {
		for got[i].Load() != transfers {
			if time.Now().After(deadline) {
				t.Fatalf("node %d delivered %d of %d completed transfers", i+1, got[i].Load(), transfers)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}
