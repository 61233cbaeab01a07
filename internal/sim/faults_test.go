package sim

import (
	"fmt"
	"testing"
	"time"

	"github.com/totem-rrp/totem/internal/proto"
	"github.com/totem-rrp/totem/internal/trace"
)

// Experiment E7 (paper §1/§3): network faults remain transparent to the
// application — no membership change, a fault report for the operator,
// and continued delivery on the surviving networks.

// pump keeps every node's send queue topped up.
func pump(c *Cluster, payload []byte, backlog int) {
	var refill func()
	refill = func() {
		for _, id := range c.NodeIDs() {
			n := c.Node(id)
			// Cap per tick: a singleton ring drains instantly and would
			// otherwise turn this into an unbounded loop.
			for i := 0; i < backlog && n.Stack.Backlog() < backlog; i++ {
				if !c.Submit(id, payload) {
					break
				}
			}
		}
		c.Sim.After(time.Millisecond, refill)
	}
	c.Sim.After(0, refill)
}

// faultStyles is every replication style on its minimum network count.
var faultStyles = []struct {
	networks int
	style    proto.ReplicationStyle
}{
	{2, proto.ReplicationActive},
	{2, proto.ReplicationPassive},
	{3, proto.ReplicationActivePassive},
}

// tracedCluster builds cfg's cluster with a structured-event counter
// wired in, so a test can assert on what the machines reported.
func tracedCluster(t *testing.T, cfg Config) (*Cluster, *trace.Counter) {
	t.Helper()
	ctr := trace.NewCounter()
	cfg.Trace = ctr
	return mustCluster(t, cfg), ctr
}

// assertFaultNarrated checks the post-conditions every fault scenario
// shares (paper §3): node 1 kept delivering after the injection, and the
// machines reported their membership phases through the probe spine.
func assertFaultNarrated(t *testing.T, c *Cluster, ctr *trace.Counter, deliveredBefore uint64) {
	t.Helper()
	if got := c.Node(1).DeliveredCount; got <= deliveredBefore {
		t.Fatalf("delivery stalled across the fault: %d -> %d", deliveredBefore, got)
	}
	if ctr.CodeCount(proto.ProbePhase) == 0 {
		t.Fatal("no membership phase transition was reported")
	}
}

// counterSum adds up one named counter over every node's registry.
func counterSum(c *Cluster, name string) uint64 {
	var sum uint64
	for _, id := range c.NodeIDs() {
		sum += c.Node(id).Stack.Metrics().Counter(name).Count()
	}
	return sum
}

func totalConfigs(c *Cluster) int {
	n := 0
	for _, id := range c.NodeIDs() {
		n += len(c.Node(id).Configs)
	}
	return n
}

func TestExperimentFaultTransparency(t *testing.T) {
	for _, tc := range faultStyles {
		t.Run(tc.style.String(), func(t *testing.T) {
			c, ctr := tracedCluster(t, baseConfig(4, tc.networks, tc.style))
			for _, id := range c.NodeIDs() {
				c.Node(id).KeepPayloads = false
			}
			c.Start()
			waitRing(t, c, 3*time.Second)
			pump(c, make([]byte, 512), 32)
			c.Run(200 * time.Millisecond)

			ringBefore := c.Node(1).Stack.SRP().Ring()
			configsBefore := totalConfigs(c)
			deliveredBefore := c.Node(1).DeliveredCount

			// Total failure of network 1 (paper §3 third fault type with
			// the subsets covering all nodes).
			c.KillNetwork(1)
			c.Run(3 * time.Second)

			// 1. Delivery continued.
			assertFaultNarrated(t, c, ctr, deliveredBefore)
			// 2. The fault was reported and the network marked faulty. It
			// never heals, so the verdict stands at every node: the
			// recovery monitor sees no receptions and keeps it excluded.
			for _, id := range c.NodeIDs() {
				if f := c.Node(id).Stack.Replicator().Faulty(); !f[1] {
					t.Fatalf("node %v does not exclude the dead network 1", id)
				}
			}
			if ctr.Count(trace.FaultRaised) == 0 {
				t.Fatal("no structured fault-raised event was recorded")
			}
			if ctr.CodeCount(proto.ProbeMonitorThreshold) == 0 {
				t.Fatal("no monitor reported crossing its conviction threshold")
			}
			reports := 0
			for _, id := range c.NodeIDs() {
				for _, f := range c.Node(id).Faults {
					if f.Network == 1 {
						reports++
					}
				}
			}
			if reports == 0 {
				t.Fatal("no fault report raised (paper §3: the administrator's alarm)")
			}
			// 3. Transparency: no membership change happened.
			if got := totalConfigs(c); got != configsBefore {
				t.Fatalf("membership changed on network fault: %d -> %d config events", configsBefore, got)
			}
			if got := c.Node(1).Stack.SRP().Ring(); got != ringBefore {
				t.Fatalf("ring id changed: %v -> %v", ringBefore, got)
			}
		})
	}
}

func TestExperimentNodeSendFault(t *testing.T) {
	// Paper §3, first fault type: node 2 cannot send on network 0. The
	// other nodes' monitors see node 2's traffic only on the other
	// networks and flag network 0; the ring keeps running.
	for _, tc := range faultStyles {
		t.Run(tc.style.String(), func(t *testing.T) {
			c, ctr := tracedCluster(t, baseConfig(4, tc.networks, tc.style))
			c.Start()
			waitRing(t, c, 3*time.Second)
			pump(c, make([]byte, 512), 32)
			c.Run(100 * time.Millisecond)
			configsBefore := totalConfigs(c)
			deliveredBefore := c.Node(1).DeliveredCount

			c.BlockSend(2, 0, true)
			c.Run(3 * time.Second)

			assertFaultNarrated(t, c, ctr, deliveredBefore)
			flagged := false
			for _, id := range c.NodeIDs() {
				if id == 2 {
					continue
				}
				for _, f := range c.Node(id).Faults {
					if f.Network == 0 {
						flagged = true
					}
				}
			}
			if !flagged {
				t.Fatal("no peer flagged network 0 after node 2's send fault")
			}
			if got := totalConfigs(c); got != configsBefore {
				t.Fatalf("membership changed: %d -> %d", configsBefore, got)
			}
		})
	}
}

func TestExperimentNodeRecvFault(t *testing.T) {
	// Paper §3, second fault type: node 3 cannot receive on network 0.
	// Node 3's own monitors flag network 0 locally.
	for _, tc := range faultStyles {
		t.Run(tc.style.String(), func(t *testing.T) {
			c, ctr := tracedCluster(t, baseConfig(4, tc.networks, tc.style))
			c.Start()
			waitRing(t, c, 3*time.Second)
			pump(c, make([]byte, 512), 32)
			c.Run(100 * time.Millisecond)

			configsBefore := totalConfigs(c)
			deliveredBefore := c.Node(1).DeliveredCount
			c.BlockRecv(3, 0, true)
			c.Run(3 * time.Second)

			assertFaultNarrated(t, c, ctr, deliveredBefore)
			if f := c.Node(3).Stack.Replicator().Faulty(); !f[0] {
				t.Fatal("node 3 did not flag network 0 after its receive fault")
			}
			// Paper §3: node 3's refusal to *send* on network 0 (after its
			// local verdict) is interpreted as a fault by the other nodes'
			// monitors, which cascade to the same verdict — and the order
			// of the reports aids diagnosis. Eventually everyone stops
			// using network 0 and the ring runs cleanly on the others,
			// still with no membership change.
			if !c.RunUntil(func() bool { return allFaulty(c, 0) }, 50*time.Millisecond, 10*time.Second) {
				for _, id := range c.NodeIDs() {
					t.Logf("node %v faulty=%v", id, c.Node(id).Stack.Replicator().Faulty())
				}
				t.Fatal("fault verdict did not cascade to the other nodes (paper §3)")
			}
			if got := totalConfigs(c); got != configsBefore {
				t.Fatalf("membership changed: %d -> %d", configsBefore, got)
			}
		})
	}
}

func TestExperimentAsymmetricPartition(t *testing.T) {
	// Paper §3, third fault type: network 0 delivers only within subsets
	// {1,2} and {3,4}; the other networks are intact and mask it.
	for _, tc := range faultStyles {
		t.Run(tc.style.String(), func(t *testing.T) {
			c, ctr := tracedCluster(t, baseConfig(4, tc.networks, tc.style))
			c.Start()
			waitRing(t, c, 3*time.Second)
			pump(c, make([]byte, 512), 32)
			c.Run(100 * time.Millisecond)
			configsBefore := totalConfigs(c)
			before := c.Node(1).DeliveredCount

			c.Partition(0, map[proto.NodeID]int{1: 0, 2: 0, 3: 1, 4: 1})
			c.Run(3 * time.Second)

			assertFaultNarrated(t, c, ctr, before)
			if got := totalConfigs(c); got != configsBefore {
				t.Fatalf("membership changed on partial network fault: %d -> %d", configsBefore, got)
			}
		})
	}
}

func TestExperimentActiveMasksLossWithoutRetransmission(t *testing.T) {
	// Paper §4: active replication masks the loss of a message on up to
	// N-1 networks *without any message retransmission delay*. Kill one
	// of two networks: every packet still arrives (via the survivor), so
	// the SRP never has to retransmit.
	c := mustCluster(t, baseConfig(4, 2, proto.ReplicationActive))
	for _, id := range c.NodeIDs() {
		c.Node(id).KeepPayloads = false
	}
	c.Start()
	waitRing(t, c, 3*time.Second)
	c.KillNetwork(0)
	pump(c, make([]byte, 512), 32)
	c.Run(2 * time.Second)

	retrans := counterSum(c, "srp.retransmissions")
	var delivered uint64
	for _, id := range c.NodeIDs() {
		delivered += c.Node(id).DeliveredCount
	}
	if delivered == 0 {
		t.Fatal("nothing delivered")
	}
	if retrans != 0 {
		t.Fatalf("active replication needed %d retransmissions; the paper promises none", retrans)
	}
}

func TestExperimentPassiveLossNeedsRetransmission(t *testing.T) {
	// Contrast to the active case: with passive replication, packets
	// assigned to the dead network are really lost until the SRP
	// retransmission machinery recovers them (paper §4: "Totem must wait
	// until the message has been retransmitted").
	c := mustCluster(t, baseConfig(4, 2, proto.ReplicationPassive))
	for _, id := range c.NodeIDs() {
		c.Node(id).KeepPayloads = false
	}
	c.Start()
	waitRing(t, c, 3*time.Second)
	pump(c, make([]byte, 512), 32)
	c.Run(100 * time.Millisecond)
	c.KillNetwork(0)
	c.Run(3 * time.Second)

	retrans := counterSum(c, "srp.retransmissions")
	var delivered uint64
	for _, id := range c.NodeIDs() {
		delivered += c.Node(id).DeliveredCount
	}
	if delivered == 0 {
		t.Fatal("nothing delivered")
	}
	if retrans == 0 {
		t.Fatal("expected retransmissions while the monitors converged on the dead network")
	}
	// After detection the ring must be running cleanly on network 1.
	if f := c.Node(1).Stack.Replicator().Faulty(); !f[0] {
		t.Fatal("network 0 never declared faulty")
	}
}

func TestExperimentRandomLossKeepsTotalOrder(t *testing.T) {
	// Sporadic loss on both networks: the protocol recovers everything
	// and keeps the total order identical at every node, and the loss is
	// never misdiagnosed as a network fault (requirements A6/P5).
	for _, style := range []proto.ReplicationStyle{proto.ReplicationActive, proto.ReplicationPassive} {
		t.Run(style.String(), func(t *testing.T) {
			nets := 2
			c := mustCluster(t, baseConfig(4, nets, style))
			c.SetLoss(0, 0.01)
			c.SetLoss(1, 0.01)
			c.Start()
			waitRing(t, c, 5*time.Second)
			for i := 0; i < 30; i++ {
				for _, id := range c.NodeIDs() {
					c.Submit(id, []byte(fmt.Sprintf("%v-%d", id, i)))
				}
			}
			ok := c.RunUntil(func() bool {
				for _, id := range c.NodeIDs() {
					if len(c.Node(id).Delivered) < 120 {
						return false
					}
				}
				return true
			}, 10*time.Millisecond, 10*time.Second)
			if !ok {
				t.Fatal("messages lost for good despite retransmission")
			}
			assertIdenticalOrder(t, c)
			for _, id := range c.NodeIDs() {
				for _, f := range c.Node(id).Stack.Replicator().Faulty() {
					if f {
						t.Fatal("sporadic loss was misdiagnosed as a network fault")
					}
				}
			}
		})
	}
}

func TestExperimentNodeCrashPlusNetworkFault(t *testing.T) {
	// Combined failure: one network dies, then a node crashes. The ring
	// must reform on the surviving networks with the surviving members.
	for _, tc := range faultStyles {
		t.Run(tc.style.String(), func(t *testing.T) {
			c, ctr := tracedCluster(t, baseConfig(4, tc.networks, tc.style))
			c.Start()
			waitRing(t, c, 3*time.Second)
			pump(c, make([]byte, 256), 16)
			c.Run(200 * time.Millisecond)
			c.KillNetwork(1)
			c.Run(2 * time.Second)
			c.Crash(4)
			ok := c.RunUntil(func() bool {
				for _, id := range []proto.NodeID{1, 2, 3} {
					m := c.Node(id).Stack.SRP()
					if len(m.Members()) != 3 {
						return false
					}
				}
				return true
			}, 20*time.Millisecond, 5*time.Second)
			if !ok {
				t.Fatal("ring did not reform after crash on the surviving network")
			}
			before := c.Node(1).DeliveredCount
			c.Run(500 * time.Millisecond)
			assertFaultNarrated(t, c, ctr, before)
		})
	}
}
