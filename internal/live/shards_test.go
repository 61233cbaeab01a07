package live

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	totem "github.com/totem-rrp/totem"
	"github.com/totem-rrp/totem/internal/proto"
	"github.com/totem-rrp/totem/internal/transport"
)

// raceDetector is set when the test binary is built with -race.
var raceDetector bool

// TestShardsScaleRotationBound holds the multi-ring claim (DESIGN.md §14):
// one ring's rate is capped at a flow-control window per token rotation,
// and M rings over the same networks lift that cap. A uniform 250 µs
// per-datagram floor and a 16/4 window make one ring rotation-bound, the
// paper's LAN regime rather than a CPU race; four rings must then order at
// least three times as many messages.
func TestShardsScaleRotationBound(t *testing.T) {
	if testing.Short() || raceDetector {
		// The race detector multiplies the per-message CPU cost until four
		// rings are CPU-bound: the ratio would measure the instrumentation.
		t.Skip("wall-clock scaling measurement")
	}
	one := saturatedRate(t, 1)
	four := saturatedRate(t, 4)
	t.Logf("1 ring: %.0f msgs/s, 4 rings: %.0f msgs/s (%.2fx)", one, four, four/one)
	if four < 3*one {
		t.Fatalf("4 rings ordered %.0f msgs/s, 1 ring %.0f: %.2fx, want >= 3x", four, one, four/one)
	}
}

// saturatedRate boots 4 nodes × 2 networks running the given number of
// rings on the mem hub behind the latency floor, floods every ring from
// every node, and returns the messages one node delivers per second over a
// 1 s window. A 1000 B message fills a packet on its own, so a rotation
// carries 16 messages and four rings need little CPU: the ratio stays a
// rotation count even on one CPU, where 100 B messages (13 to a packet)
// make four rings CPU-bound near 3x.
func saturatedRate(t *testing.T, shards int) float64 {
	t.Helper()
	const nodes, networks, msgLen = 4, 2, 1000
	nm := NewNetem(networks, NetemParams{Seed: 1})
	for i := 0; i < networks; i++ {
		nm.SetSlowNet(i, 250*time.Microsecond)
	}
	fab, err := newFabric("mem", nodes, networks, "", nm)
	if err != nil {
		t.Fatal(err)
	}
	defer fab.close()

	var delivered atomic.Uint64
	var ring []*totem.Node
	var trs []transport.Transport
	defer func() {
		for _, n := range ring {
			n.Close()
		}
		for _, tr := range trs {
			tr.Close()
		}
	}()
	for _, id := range fab.order {
		tr, err := fab.attach(id)
		if err != nil {
			t.Fatal(err)
		}
		trs = append(trs, tr)
		n, err := totem.NewNode(totem.Config{
			ID:          id,
			Networks:    networks,
			Replication: proto.ReplicationActive,
			Shards:      shards,
			// Key byte = ring: the submitters address rings directly.
			ShardFunc: func(key []byte, shards int) int { return int(key[0]) % shards },
			Tune: func(o *totem.Options) {
				liveTune(o)
				o.SRP.WindowSize = 16
				o.SRP.MaxPerVisit = 4
				o.DeliveryTap = func(totem.Delivery) { delivered.Add(1) }
			},
		}, tr)
		if err != nil {
			t.Fatalf("node %v: %v", id, err)
		}
		ring = append(ring, n)
		// The tap counts; drain the stream so its queue holds nothing.
		go func() {
			for range n.Deliveries() {
			}
		}()
	}
	if err := waitRing(ring, shards, 15*time.Second); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, n := range ring {
		for s := 0; s < shards; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				key := []byte{byte(s)}
				payload := make([]byte, msgLen)
				for {
					select {
					case <-stop:
						return
					default:
					}
					if n.SendKeyed(key, payload) != nil {
						time.Sleep(time.Millisecond) // backpressure: the full queue outlasts the nap
						continue
					}
					payload = make([]byte, msgLen) // Send owns the last one
				}
			}()
		}
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	time.Sleep(300 * time.Millisecond) // warm-up
	before := delivered.Load()
	start := time.Now()
	time.Sleep(time.Second)
	return float64(delivered.Load()-before) / nodes / time.Since(start).Seconds()
}
