package live

import (
	"fmt"
	"sync"
	"time"

	totem "github.com/totem-rrp/totem"
	"github.com/totem-rrp/totem/internal/proto"
	"github.com/totem-rrp/totem/internal/transport"
)

// fabric is the wire under one live cluster: the in-memory hub or one
// loopback UDP socket per node per network, each node's end optionally
// behind a shared netem. Every live cluster — torture harness, shard
// torture, logd cluster, shard-scaling test — opens its sockets, wires its
// peers and wraps its transports here and nowhere else.
type fabric struct {
	networks int
	wirePath string
	order    []proto.NodeID
	nm       *Netem            // nil: nodes run on the bare transport
	hub      *transport.MemHub // mem only

	mu  sync.Mutex
	udp map[proto.NodeID]*transport.UDPTransport // udp only: each node's current sockets
}

// newFabric builds the wire for nodes 1..nodes. kind is "mem" or "udp";
// wirePath picks the UDP kernel driver ("" = auto). UDP sockets all bind
// (on ephemeral loopback ports) before any peer is wired, so every node
// learns every other node's real address.
func newFabric(kind string, nodes, networks int, wirePath string, nm *Netem) (*fabric, error) {
	f := &fabric{networks: networks, wirePath: wirePath, nm: nm}
	for i := 1; i <= nodes; i++ {
		f.order = append(f.order, proto.NodeID(i))
	}
	switch kind {
	case "mem":
		f.hub = transport.NewMemHub(networks)
	case "udp":
		f.udp = make(map[proto.NodeID]*transport.UDPTransport, nodes)
		for _, id := range f.order {
			if err := f.reopen(id); err != nil {
				f.close()
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("live: unknown transport %q", kind)
	}
	return f, nil
}

// peersOf lists every node except id, in slot order.
func (f *fabric) peersOf(id proto.NodeID) []proto.NodeID {
	out := make([]proto.NodeID, 0, len(f.order)-1)
	for _, p := range f.order {
		if p != id {
			out = append(out, p)
		}
	}
	return out
}

// reopen gives node id fresh UDP sockets and wires them both ways to every
// socket already open — at boot, and when a crashed node comes back on new
// ports (a machine rebooting with a new DHCP lease). A no-op on mem, where
// attach re-joins the hub.
func (f *fabric) reopen(id proto.NodeID) error {
	if f.hub != nil {
		return nil
	}
	listen := make([]string, f.networks)
	for i := range listen {
		listen[i] = "127.0.0.1:0"
	}
	t, err := transport.NewUDP(transport.UDPConfig{ID: id, Listen: listen, WirePath: f.wirePath})
	if err != nil {
		return fmt.Errorf("live: node %v sockets: %w", id, err)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if old := f.udp[id]; old != nil {
		old.Close()
	}
	f.udp[id] = t
	for peer, pt := range f.udp {
		if peer == id {
			continue
		}
		// A crashed peer's closed transport takes the update harmlessly.
		if err := t.AddPeer(peer, pt.LocalAddrs()); err != nil {
			return err
		}
		if err := pt.AddPeer(id, t.LocalAddrs()); err != nil {
			return err
		}
	}
	return nil
}

// attach returns the transport node id boots on: its hub membership or its
// current sockets, wrapped in the impairment layer when the fabric has a
// netem. The caller owns the result; closing it closes the inner transport.
func (f *fabric) attach(id proto.NodeID) (transport.Transport, error) {
	var inner transport.Transport
	if f.hub != nil {
		t, err := f.hub.Join(id)
		if err != nil {
			return nil, err
		}
		inner = t
	} else {
		f.mu.Lock()
		inner = f.udp[id]
		f.mu.Unlock()
	}
	if f.nm == nil {
		return inner, nil
	}
	return Impair(inner, id, f.peersOf(id), f.nm), nil
}

// close releases every socket, attached or not; idempotent.
func (f *fabric) close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, t := range f.udp {
		t.Close()
	}
}

// notJoined lists the nodes that are not yet operational in one ring
// holding all of nodes, on some shard. Operational() alone is not
// readiness: a singleton ring satisfies it.
func notJoined(nodes []*totem.Node, shards int) []proto.NodeID {
	var out []proto.NodeID
	for _, n := range nodes {
		joined := n.Operational()
		for s := 0; joined && s < shards; s++ {
			_, members := n.RingOf(s)
			joined = len(members) == len(nodes)
		}
		if !joined {
			out = append(out, n.ID())
		}
	}
	return out
}

// waitRing blocks until every node lists every member on every shard, or
// fails naming the nodes that never joined.
func waitRing(nodes []*totem.Node, shards int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		late := notJoined(nodes, shards)
		if len(late) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("live: ring of %d (%d shards) did not form in %s: %v never joined",
				len(nodes), shards, timeout, late)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
