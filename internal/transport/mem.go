package transport

import (
	"fmt"
	"sync"

	"github.com/totem-rrp/totem/internal/proto"
	"github.com/totem-rrp/totem/internal/wire"
)

// MemHub is an in-process set of N redundant networks connecting any
// number of nodes. It is the real-time analogue of the simulator's
// broadcast media — useful for tests, examples and single-process demos.
// Packets are delivered in send order per (sender, network) pair, matching
// the UDP-over-Ethernet FIFO property the paper relies on (§5).
type MemHub struct {
	networks int

	mu    sync.Mutex
	nodes map[proto.NodeID]*MemTransport
	// down[i] silences network i entirely (fault injection).
	down []bool
	// blockSend[node][net] / blockRecv[node][net] model the paper's §3
	// per-node interface faults.
	blockSend map[proto.NodeID][]bool
	blockRecv map[proto.NodeID][]bool
}

// NewMemHub creates a hub with n redundant networks.
func NewMemHub(n int) *MemHub {
	return &MemHub{
		networks:  n,
		nodes:     make(map[proto.NodeID]*MemTransport),
		down:      make([]bool, n),
		blockSend: make(map[proto.NodeID][]bool),
		blockRecv: make(map[proto.NodeID][]bool),
	}
}

// buffered channel depth per node; deep enough that a busy ring never
// drops in-process packets under test loads.
const memDepth = 4096

// Join attaches a node and returns its transport.
func (h *MemHub) Join(id proto.NodeID) (*MemTransport, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.nodes[id]; ok {
		return nil, fmt.Errorf("memhub: node %v already joined", id)
	}
	t := &MemTransport{
		hub: h,
		id:  id,
		rx:  make(chan Packet, memDepth),
	}
	h.nodes[id] = t
	h.blockSend[id] = make([]bool, h.networks)
	h.blockRecv[id] = make([]bool, h.networks)
	return t, nil
}

// KillNetwork silences network i (both directions, all nodes).
func (h *MemHub) KillNetwork(i int) { h.setDown(i, true) }

// ReviveNetwork restores network i.
func (h *MemHub) ReviveNetwork(i int) { h.setDown(i, false) }

func (h *MemHub) setDown(i int, v bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if i >= 0 && i < h.networks {
		h.down[i] = v
	}
}

// BlockSend stops id from sending on network i (paper §3 fault model).
func (h *MemHub) BlockSend(id proto.NodeID, i int, blocked bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if b := h.blockSend[id]; i >= 0 && i < len(b) {
		b[i] = blocked
	}
}

// BlockRecv stops id from receiving on network i.
func (h *MemHub) BlockRecv(id proto.NodeID, i int, blocked bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if b := h.blockRecv[id]; i >= 0 && i < len(b) {
		b[i] = blocked
	}
}

// send routes one packet under the hub's fault rules.
func (h *MemHub) send(src *MemTransport, network int, dest proto.NodeID, data []byte) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	// closed is written under mu by Close, which can run concurrently
	// with a send (a netem-delayed datagram firing during teardown).
	if src.closed {
		return ErrClosed
	}
	if network < 0 || network >= h.networks {
		return ErrBadNetwork
	}
	from := src.id
	if h.down[network] || h.blockSend[from][network] {
		return nil // silently lost, like a dead NIC
	}
	deliver := func(t *MemTransport) {
		if h.blockRecv[t.id][network] {
			return
		}
		// Per-receiver copies go into pooled frames (the sender's buffer
		// may be recycled as soon as send returns); the consumer recycles
		// data frames with wire.ReleaseFrame after processing.
		var cp []byte
		if len(data) <= wire.FrameCap {
			cp = append(wire.GetFrame(), data...)
		} else {
			cp = append([]byte(nil), data...)
		}
		select {
		case t.rx <- Packet{Network: network, Data: cp}:
		default:
			// Receiver queue overflow models packet loss on a saturated
			// host; the protocol's retransmission machinery recovers.
			wire.PutFrame(cp)
		}
	}
	if dest == proto.BroadcastID {
		for id, t := range h.nodes {
			if id != from && !t.closed {
				deliver(t)
			}
		}
		return nil
	}
	t, ok := h.nodes[dest]
	if !ok {
		return ErrNoPeer
	}
	if !t.closed {
		deliver(t)
	}
	return nil
}

// MemTransport is one node's endpoint on a MemHub.
type MemTransport struct {
	hub    *MemHub
	id     proto.NodeID
	rx     chan Packet
	closed bool
}

var _ Transport = (*MemTransport)(nil)

// Networks implements Transport.
func (t *MemTransport) Networks() int { return t.hub.networks }

// Send implements Transport.
func (t *MemTransport) Send(network int, dest proto.NodeID, data []byte) error {
	return t.hub.send(t, network, dest, data)
}

// Packets implements Transport.
func (t *MemTransport) Packets() <-chan Packet { return t.rx }

// Close implements Transport.
func (t *MemTransport) Close() error {
	t.hub.mu.Lock()
	defer t.hub.mu.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	delete(t.hub.nodes, t.id)
	close(t.rx)
	return nil
}
