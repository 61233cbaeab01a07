package sim

import (
	"testing"
	"time"

	"github.com/totem-rrp/totem/internal/proto"
	"github.com/totem-rrp/totem/internal/stack"
	"github.com/totem-rrp/totem/internal/trace"
)

// Regression tests for the automatic-readmission subsystem: a healed
// network returns to service without operator action, an oscillating
// network is flap-damped, and disabling the feature restores the paper's
// manual-only model. All run with a shortened decay interval so probation
// (3 windows) completes in hundreds of milliseconds of virtual time.

func fastRecoveryConfig(nodes, networks int, style proto.ReplicationStyle) Config {
	cfg := baseConfig(nodes, networks, style)
	cfg.TuneSRP = func(_ proto.NodeID, sc *stack.Config) {
		sc.RRP.DecayInterval = 100 * time.Millisecond
	}
	return cfg
}

func allFaulty(c *Cluster, net int) bool {
	for _, id := range c.NodeIDs() {
		if !c.Node(id).Stack.Replicator().Faulty()[net] {
			return false
		}
	}
	return true
}

func noneFaulty(c *Cluster, net int) bool {
	for _, id := range c.NodeIDs() {
		if c.Node(id).Stack.Replicator().Faulty()[net] {
			return false
		}
	}
	return true
}

func TestAutoReadmitHealedNetwork(t *testing.T) {
	for _, tc := range faultStyles {
		t.Run(tc.style.String(), func(t *testing.T) {
			c, ctr := tracedCluster(t, fastRecoveryConfig(4, tc.networks, tc.style))
			for _, id := range c.NodeIDs() {
				c.Node(id).KeepPayloads = false
			}
			c.Start()
			waitRing(t, c, 3*time.Second)
			pump(c, make([]byte, 512), 32)
			c.Run(200 * time.Millisecond)
			configsBefore := totalConfigs(c)
			deliveredBefore := c.Node(1).DeliveredCount

			c.KillNetwork(1)
			if !c.RunUntil(func() bool { return allFaulty(c, 1) }, 10*time.Millisecond, 5*time.Second) {
				t.Fatal("network death never convicted")
			}

			c.ReviveNetwork(1)
			tx := c.Node(1).Stack.Metrics().Counter("rrp.net1.tx_packets")
			txAtRevive := tx.Count()
			if !c.RunUntil(func() bool { return noneFaulty(c, 1) }, 10*time.Millisecond, 5*time.Second) {
				t.Fatal("healed network never auto-readmitted")
			}
			for _, id := range c.NodeIDs() {
				n := c.Node(id)
				cleared := false
				for _, cr := range n.Cleared {
					if cr.Network == 1 {
						cleared = true
					}
				}
				if !cleared {
					t.Fatalf("node %v readmitted without a ClearReport", id)
				}
			}

			// Replication traffic (not just probes) resumes on the network.
			c.Run(500 * time.Millisecond)
			if now := tx.Count(); now <= txAtRevive {
				t.Fatalf("no traffic on the healed network: %d at revive, %d now", txAtRevive, now)
			}
			assertFaultNarrated(t, c, ctr, deliveredBefore)
			// The recovery monitor narrated its work through the probe
			// spine: probes on the faulted network, probation windows
			// counted down, and the raise and clear themselves.
			if ctr.CodeCount(proto.ProbeProbeSent) == 0 {
				t.Fatal("recovery monitor never reported sending a probe")
			}
			if ctr.CodeCount(proto.ProbeProbation) == 0 {
				t.Fatal("recovery monitor never reported probation progress")
			}
			if ctr.Count(trace.FaultRaised) == 0 || ctr.Count(trace.FaultCleared) == 0 {
				t.Fatal("fault raise/clear events missing from the structured stream")
			}
			// The whole fault-and-heal cycle stayed below the membership
			// layer (paper §3).
			if got := totalConfigs(c); got != configsBefore {
				t.Fatalf("membership changed: %d -> %d config events", configsBefore, got)
			}
		})
	}
}

func TestFlapDampingBacksOffWithoutMembershipChange(t *testing.T) {
	for _, tc := range faultStyles {
		t.Run(tc.style.String(), func(t *testing.T) {
			c, ctr := tracedCluster(t, fastRecoveryConfig(4, tc.networks, tc.style))
			for _, id := range c.NodeIDs() {
				c.Node(id).KeepPayloads = false
			}
			c.Start()
			waitRing(t, c, 3*time.Second)
			pump(c, make([]byte, 512), 32)
			c.Run(200 * time.Millisecond)
			configsBefore := totalConfigs(c)
			deliveredBefore := c.Node(1).DeliveredCount

			c.ScheduleFlap(1, 500*time.Millisecond, 2*time.Second, 3)
			c.Run(9 * time.Second)

			assertFaultNarrated(t, c, ctr, deliveredBefore)
			// Each re-fault within the flap window doubles the next
			// probation, so the sequence of clear reports shows a growing
			// requirement.
			damped := false
			for _, id := range c.NodeIDs() {
				cl := c.Node(id).Cleared
				for i := 1; i < len(cl); i++ {
					if cl[i].Probation < cl[i-1].Probation {
						t.Fatalf("node %v: probation shrank across flaps: %v", id, cl)
					}
				}
				if len(cl) >= 2 && cl[len(cl)-1].Probation > cl[0].Probation {
					damped = true
				}
			}
			if !damped {
				t.Fatal("no node showed probation doubling across flap cycles")
			}
			if counterSum(c, "rrp.flap_backoffs") == 0 {
				t.Fatal("no flap backoff counted")
			}
			if ctr.CodeCount(proto.ProbeFlapBackoff) == 0 {
				t.Fatal("no structured flap-backoff event was recorded")
			}
			if got := ctr.Count(trace.FaultCleared); got < 2 {
				t.Fatalf("%d structured readmission events across the flap cycles, want >= 2", got)
			}
			// However hard the network flaps, the ring membership never
			// moves.
			if got := totalConfigs(c); got != configsBefore {
				t.Fatalf("flapping network changed membership: %d -> %d config events", configsBefore, got)
			}
		})
	}
}

func TestAutoReadmitDisabledRequiresOperator(t *testing.T) {
	cfg := fastRecoveryConfig(4, 2, proto.ReplicationPassive)
	inner := cfg.TuneSRP
	cfg.TuneSRP = func(id proto.NodeID, sc *stack.Config) {
		inner(id, sc)
		sc.RRP.AutoReadmit = false
	}
	c := mustCluster(t, cfg)
	for _, id := range c.NodeIDs() {
		c.Node(id).KeepPayloads = false
	}
	c.Start()
	waitRing(t, c, 3*time.Second)
	pump(c, make([]byte, 512), 32)
	c.Run(200 * time.Millisecond)

	c.KillNetwork(1)
	if !c.RunUntil(func() bool { return allFaulty(c, 1) }, 10*time.Millisecond, 5*time.Second) {
		t.Fatal("network death never convicted")
	}
	c.ReviveNetwork(1)
	// Dozens of probation-lengths of clean running: the verdict must stand
	// until the operator acts.
	c.Run(3 * time.Second)
	if !allFaulty(c, 1) {
		t.Fatal("network readmitted without operator action despite AutoReadmit=false")
	}
	for _, id := range c.NodeIDs() {
		if n := c.Node(id); len(n.Cleared) != 0 {
			t.Fatalf("node %v emitted clear reports with AutoReadmit off: %v", id, n.Cleared)
		}
	}
	for _, id := range c.NodeIDs() {
		c.Node(id).Stack.Replicator().Readmit(1)
	}
	if !noneFaulty(c, 1) {
		t.Fatal("manual readmission failed")
	}
	tx := c.Node(1).Stack.Metrics().Counter("rrp.net1.tx_packets")
	before := tx.Count()
	c.Run(500 * time.Millisecond)
	if tx.Count() <= before {
		t.Fatal("no traffic after manual readmission")
	}
}
