package sim

import (
	"runtime"
	"testing"
	"time"

	"github.com/totem-rrp/totem/internal/proto"
)

// saturatedCluster builds a formed 4-node ring under a saturating
// workload, ready for single-step measurement.
func saturatedCluster(b testing.TB) *Cluster {
	b.Helper()
	c, err := NewCluster(Config{
		Nodes:    4,
		Networks: 1,
		Style:    proto.ReplicationNone,
		Net:      DefaultNetworkParams(),
		Host:     DefaultNodeParams(),
		Seed:     1,
	})
	if err != nil {
		b.Fatal(err)
	}
	ids := c.NodeIDs()
	for _, id := range ids {
		c.Node(id).KeepPayloads = false
	}
	c.Start()
	formed := c.RunUntil(func() bool {
		for _, id := range ids {
			if len(c.Node(id).Stack.SRP().Members()) != 4 {
				return false
			}
		}
		return true
	}, 10*time.Millisecond, 10*time.Second)
	if !formed {
		b.Fatal("ring never formed")
	}
	payload := make([]byte, 1000)
	var pump func()
	pump = func() {
		for _, id := range ids {
			n := c.Node(id)
			for i := 0; i < 32 && n.Stack.Backlog() < 32; i++ {
				if !c.Submit(id, payload) {
					break
				}
			}
		}
		c.Sim.After(time.Millisecond, pump)
	}
	c.Sim.After(0, pump)
	c.Run(100 * time.Millisecond) // reach steady state
	return c
}

// BenchmarkHotPathSimStep measures one discrete event of a saturated
// 4-node ring end to end: scheduler pop (pooled events), stack handlers
// (pooled frames, recycled action batches) and frame refcounting. This is
// the unit the wall-clock figure benchmarks are made of.
func BenchmarkHotPathSimStep(b *testing.B) {
	c := saturatedCluster(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.Sim.Step() {
			b.Fatal("event queue empty")
		}
	}
}

// BenchmarkHotPathProbesDisabled proves the observability spine is free
// when unused: with no tracer configured the probe hooks are nil and the
// hot path must still run at 0 allocs/op. Compare against
// BenchmarkHotPathSimStep (identical setup) to see the spine's cost — the
// two should be indistinguishable.
func BenchmarkHotPathProbesDisabled(b *testing.B) {
	c := saturatedCluster(b)
	if c.tracing {
		b.Fatal("cluster unexpectedly tracing; this benchmark measures the disabled path")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.Sim.Step() {
			b.Fatal("event queue empty")
		}
	}
}

// TestSaturatedStepAllocs pins the steady-state simulation step: packet
// arrivals, CPU slots and timer expiries are typed events and the SRP
// recycles packet headers, so what remains is the one payload-region copy
// each received data packet needs — at most one allocation per event on
// average, where closures per scheduled packet once made it five.
func TestSaturatedStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under -race")
	}
	c := saturatedCluster(t)
	const steps = 20000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < steps; i++ {
		if !c.Sim.Step() {
			t.Fatal("event queue empty")
		}
	}
	runtime.ReadMemStats(&after)
	if per := float64(after.Mallocs-before.Mallocs) / steps; per > 1 {
		t.Fatalf("saturated step: %.3f allocs per event, want at most 1", per)
	}
}
