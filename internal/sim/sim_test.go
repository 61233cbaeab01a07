package sim

import (
	"math/rand"
	"testing"
	"time"

	"github.com/totem-rrp/totem/internal/proto"
	"github.com/totem-rrp/totem/internal/wire"
)

func TestSimulatorOrdersEventsByTime(t *testing.T) {
	s := NewSimulator()
	var got []int
	s.At(30*time.Millisecond, func() { got = append(got, 3) })
	s.At(10*time.Millisecond, func() { got = append(got, 1) })
	s.At(20*time.Millisecond, func() { got = append(got, 2) })
	s.Run(time.Second)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v", got)
	}
	if s.Now() != time.Second {
		t.Fatalf("Now = %v after Run", s.Now())
	}
}

func TestSimulatorFIFOAmongSimultaneousEvents(t *testing.T) {
	s := NewSimulator()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Millisecond, func() { got = append(got, i) })
	}
	s.Run(time.Second)
	for i, v := range got {
		if v != i {
			t.Fatalf("simultaneous events reordered: %v", got)
		}
	}
}

// TestSimulatorPopOrderIsTotal drives the heap with random times, many of
// them tied, while executed events schedule more: every event must run in
// (time, scheduling order) order, the total order the scheduler promises.
func TestSimulatorPopOrderIsTotal(t *testing.T) {
	s := NewSimulator()
	rng := rand.New(rand.NewSource(1))
	type stamp struct {
		at  proto.Time
		seq int
	}
	var ran []stamp
	scheduled := 0
	var schedule func(depth int)
	schedule = func(depth int) {
		at := s.Now() + time.Duration(rng.Intn(8))*time.Millisecond
		seq := scheduled
		scheduled++
		s.At(at, func() {
			ran = append(ran, stamp{at, seq})
			if depth < 3 && rng.Intn(2) == 0 {
				schedule(depth + 1)
			}
		})
	}
	for i := 0; i < 500; i++ {
		schedule(0)
	}
	s.Run(time.Hour)
	if len(ran) != scheduled {
		t.Fatalf("ran %d of %d events", len(ran), scheduled)
	}
	for i := 1; i < len(ran); i++ {
		p, c := ran[i-1], ran[i]
		if c.at < p.at || (c.at == p.at && c.seq < p.seq) {
			t.Fatalf("event %d ran at %v after event %d at %v", c.seq, c.at, p.seq, p.at)
		}
	}
}

// TestSimulatorScheduleAllocs pins the steady-state scheduler: pooled
// events on a typed heap, so At + Step allocate nothing.
func TestSimulatorScheduleAllocs(t *testing.T) {
	s := NewSimulator()
	fn := func() {}
	for i := 0; i < 64; i++ {
		s.After(time.Duration(i), fn)
	}
	allocs := testing.AllocsPerRun(100, func() {
		s.After(time.Millisecond, fn)
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("At + Step: %v allocs, want 0", allocs)
	}
}

func TestSimulatorRunStopsAtBoundary(t *testing.T) {
	s := NewSimulator()
	fired := false
	s.At(2*time.Second, func() { fired = true })
	s.Run(time.Second)
	if fired {
		t.Fatal("future event fired early")
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d", s.Pending())
	}
	s.Run(3 * time.Second)
	if !fired {
		t.Fatal("event never fired")
	}
}

func TestSimulatorPastEventsClampToNow(t *testing.T) {
	s := NewSimulator()
	s.Run(time.Second)
	fired := time.Duration(0)
	s.At(0, func() { fired = s.Now() })
	s.Step()
	if fired != time.Second {
		t.Fatalf("past event at %v, want clamped to 1s", fired)
	}
}

func TestSimulatorAfterIsRelative(t *testing.T) {
	s := NewSimulator()
	var at time.Duration
	s.At(time.Second, func() {
		s.After(500*time.Millisecond, func() { at = s.Now() })
	})
	s.Run(5 * time.Second)
	if at != 1500*time.Millisecond {
		t.Fatalf("After fired at %v", at)
	}
}

func TestSimulatorStepEmptyQueue(t *testing.T) {
	s := NewSimulator()
	if s.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestFrameTimeMath(t *testing.T) {
	p := DefaultNetworkParams() // 100 Mbit/s
	// A maximum frame (1424B payload packet ≈ 1518B on the wire) takes
	// 1518*8/1e8 s ≈ 121.4 µs.
	full := p.frameTime(wire.MaxPayload + 22) // encoded size of a full data packet
	if full < 120*time.Microsecond || full > 123*time.Microsecond {
		t.Fatalf("full frame time = %v", full)
	}
	// Infinite bandwidth: zero serialisation delay.
	inf := NetworkParams{BandwidthBits: 0}
	if inf.frameTime(1000) != 0 {
		t.Fatal("infinite bandwidth has serialisation delay")
	}
	// Monotone in size.
	if p.frameTime(100) >= p.frameTime(1000) {
		t.Fatal("frame time not monotone")
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(Config{Nodes: 0, Networks: 1}); err == nil {
		t.Fatal("zero nodes accepted")
	}
	if _, err := NewCluster(Config{Nodes: 1, Networks: 0}); err == nil {
		t.Fatal("zero networks accepted")
	}
}

func TestNetworkSerialisationDelaysBroadcast(t *testing.T) {
	// Two packets sent back to back on a 100 Mbit/s medium must arrive
	// separated by at least one frame time: the medium is serialised.
	c := mustCluster(t, baseConfig(2, 1, proto.ReplicationNone))
	c.Start()
	waitRing(t, c, 3*time.Second)
	n2 := c.Node(2)
	var arrivals []time.Duration
	n2.OnDeliver = func(d proto.Delivery) {
		arrivals = append(arrivals, c.Sim.Now())
	}
	payload := make([]byte, 1400) // one near-full frame each
	c.Submit(1, payload)
	c.Submit(1, append([]byte(nil), payload...))
	c.Run(100 * time.Millisecond)
	if len(arrivals) != 2 {
		t.Fatalf("deliveries = %d", len(arrivals))
	}
	gap := arrivals[1] - arrivals[0]
	frame := DefaultNetworkParams().frameTime(1400 + 25)
	if gap < frame/2 {
		t.Fatalf("frames not serialised: gap %v < half frame %v", gap, frame)
	}
}
