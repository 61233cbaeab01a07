// Package stack composes the Totem SRP machine with an RRP replicator
// into a single deterministic, event-driven node: packets in, actions out.
// Both the discrete-event simulator (internal/sim) and the real-time
// runtime (internal/transport) drive this type.
package stack

import (
	"fmt"

	"github.com/totem-rrp/totem/internal/core"
	"github.com/totem-rrp/totem/internal/metrics"
	"github.com/totem-rrp/totem/internal/proto"
	"github.com/totem-rrp/totem/internal/srp"
)

// Config combines the per-layer configurations.
type Config struct {
	SRP srp.Config
	RRP core.Config
}

// DefaultConfig returns defaults for a node on n redundant networks.
func DefaultConfig(id proto.NodeID, networks int, style proto.ReplicationStyle) Config {
	return Config{
		SRP: srp.DefaultConfig(id),
		RRP: core.DefaultConfig(networks, style),
	}
}

// Node is one protocol stack instance. It is not safe for concurrent use;
// drivers serialise all calls and drain the returned actions after each.
type Node struct {
	acts proto.Actions
	srp  *srp.Machine
	rep  core.Replicator
	met  *metrics.Registry
}

// New builds a node. The SRP's broadcasts and token unicasts are routed
// through the replicator; packets the replicator passes up feed the SRP.
// Both layers count into the node's one metrics registry.
func New(cfg Config) (*Node, error) {
	reg := metrics.NewRegistry()
	cfg.SRP.Metrics = reg
	cfg.RRP.Metrics = reg
	n := &Node{met: reg}
	rep, err := core.New(cfg.RRP, &n.acts, core.Callbacks{
		Deliver: func(now proto.Time, data []byte) { n.srp.OnPacket(now, data) },
		Missing: func(seq uint32) bool { return n.srp.MissingBefore(seq) },
	})
	if err != nil {
		return nil, fmt.Errorf("stack: replicator: %w", err)
	}
	n.rep = rep
	m, err := srp.NewMachine(cfg.SRP, outbound{n}, &n.acts)
	if err != nil {
		return nil, fmt.Errorf("stack: srp: %w", err)
	}
	n.srp = m
	return n, nil
}

// outbound adapts the replicator to the SRP's Outbound interface.
type outbound struct{ n *Node }

var _ srp.Outbound = outbound{}

// Broadcast implements srp.Outbound.
func (o outbound) Broadcast(data []byte) { o.n.rep.SendMessage(data) }

// Unicast implements srp.Outbound.
func (o outbound) Unicast(dest proto.NodeID, data []byte) { o.n.rep.SendToken(dest, data) }

// ID returns the node identifier.
func (n *Node) ID() proto.NodeID { return n.srp.ID() }

// Start boots the node (monitor timers, ring formation) and returns the
// resulting actions.
func (n *Node) Start(now proto.Time) []proto.Action {
	n.rep.Start(now)
	n.srp.Start(now)
	return n.acts.Drain()
}

// Submit queues an application message; ok is false under backpressure.
func (n *Node) Submit(now proto.Time, payload []byte) (ok bool, actions []proto.Action) {
	ok = n.srp.Submit(now, payload)
	return ok, n.acts.Drain()
}

// SubmitBulk queues one chunk of a bulk transfer on the rate-limited bulk
// lane; ok is false under backpressure.
func (n *Node) SubmitBulk(now proto.Time, id, off, total uint64, data []byte) (ok bool, actions []proto.Action) {
	ok = n.srp.SubmitBulk(now, id, off, total, data)
	return ok, n.acts.Drain()
}

// OnPacket processes a packet received on one network.
func (n *Node) OnPacket(now proto.Time, network int, data []byte) []proto.Action {
	n.rep.OnPacket(now, network, data)
	return n.acts.Drain()
}

// OnTimer processes a timer expiry, routing it to the owning layer.
func (n *Node) OnTimer(now proto.Time, id proto.TimerID) []proto.Action {
	if id.IsRRP() {
		n.rep.OnTimer(now, id)
	} else {
		n.srp.OnTimer(now, id)
	}
	return n.acts.Drain()
}

// Recycle returns an executed action batch for reuse by later emissions.
// Drivers call it after every send and delivery in the batch has completed;
// the batch must not be touched afterwards.
func (n *Node) Recycle(batch []proto.Action) {
	n.acts.Recycle(batch)
}

// SetProbe installs (or removes, with nil) the typed machine-event hook
// shared by both layers. Drivers install it before Start; with none
// installed, probe emission is a single branch per site.
func (n *Node) SetProbe(fn proto.ProbeFunc) { n.acts.SetProbe(fn) }

// Metrics returns the node's metric registry (safe for concurrent reads).
func (n *Node) Metrics() *metrics.Registry { return n.met }

// SRP exposes the ordering machine (read-only use: state, membership).
func (n *Node) SRP() *srp.Machine { return n.srp }

// Replicator exposes the RRP layer (fault flags, readmission).
func (n *Node) Replicator() core.Replicator { return n.rep }

// Backlog returns queued, unsent application messages.
func (n *Node) Backlog() int { return n.srp.Backlog() }

// BulkBacklog returns queued, unsent bulk chunks.
func (n *Node) BulkBacklog() int { return n.srp.BulkBacklog() }
