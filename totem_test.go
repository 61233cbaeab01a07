package totem_test

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	totem "github.com/totem-rrp/totem"
)

// startRing boots n nodes on a fresh MemHub with the given style and
// waits until they share one operational ring.
func startRing(t *testing.T, n, networks int, style totem.ReplicationStyle) (*totem.MemHub, []*totem.Node) {
	t.Helper()
	hub := totem.NewMemHub(networks)
	nodes := make([]*totem.Node, 0, n)
	for i := 1; i <= n; i++ {
		tr, err := hub.Join(totem.NodeID(i))
		if err != nil {
			t.Fatalf("Join: %v", err)
		}
		node, err := totem.NewNode(totem.Config{
			ID:          totem.NodeID(i),
			Networks:    networks,
			Replication: style,
		}, tr)
		if err != nil {
			t.Fatalf("NewNode: %v", err)
		}
		nodes = append(nodes, node)
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Close()
		}
	})
	waitFullRing(t, nodes, n, 15*time.Second)
	return hub, nodes
}

func waitFullRing(t *testing.T, nodes []*totem.Node, want int, budget time.Duration) {
	t.Helper()
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		ok := true
		var ring totem.RingID
		for i, n := range nodes {
			r, members := n.Ring()
			if !n.Operational() || len(members) != want {
				ok = false
				break
			}
			if i == 0 {
				ring = r
			} else if r != ring {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, n := range nodes {
		r, members := n.Ring()
		t.Logf("node %v: operational=%v ring=%v members=%v", n.ID(), n.Operational(), r, members)
	}
	t.Fatalf("ring did not form within %v", budget)
}

func TestRealTimeRingFormsAndDelivers(t *testing.T) {
	for _, tc := range []struct {
		networks int
		style    totem.ReplicationStyle
	}{
		{1, totem.NoReplication},
		{2, totem.Active},
		{2, totem.Passive},
		{3, totem.ActivePassive},
	} {
		t.Run(tc.style.String(), func(t *testing.T) {
			_, nodes := startRing(t, 3, tc.networks, tc.style)
			const perNode = 10
			for i := 0; i < perNode; i++ {
				for _, n := range nodes {
					if err := n.Send([]byte(fmt.Sprintf("%v/%d", n.ID(), i))); err != nil {
						t.Fatalf("Send: %v", err)
					}
				}
			}
			total := perNode * len(nodes)
			var wg sync.WaitGroup
			sequences := make([][]string, len(nodes))
			for i, n := range nodes {
				wg.Add(1)
				go func() {
					defer wg.Done()
					timeout := time.After(15 * time.Second)
					for len(sequences[i]) < total {
						select {
						case d := <-n.Deliveries():
							sequences[i] = append(sequences[i], string(d.Payload))
						case <-timeout:
							return
						}
					}
				}()
			}
			wg.Wait()
			for i := range sequences {
				if len(sequences[i]) != total {
					t.Fatalf("node %v delivered %d/%d", nodes[i].ID(), len(sequences[i]), total)
				}
			}
			for i := 1; i < len(sequences); i++ {
				for j := range sequences[0] {
					if sequences[i][j] != sequences[0][j] {
						t.Fatalf("total order violated at %d: %q vs %q", j, sequences[i][j], sequences[0][j])
					}
				}
			}
		})
	}
}

func TestNetworkFaultIsTransparent(t *testing.T) {
	// The paper's headline behaviour (E7): kill one of two networks under
	// active replication. The ring keeps delivering, a fault report is
	// raised, and no membership change occurs.
	hub, nodes := startRing(t, 3, 2, totem.Active)

	// Drain config changes so far.
	ringBefore, _ := nodes[0].Ring()

	hub.KillNetwork(1)

	// Traffic keeps the monitors fed and proves liveness.
	done := make(chan struct{})
	go func() {
		defer close(done)
		deadline := time.After(20 * time.Second)
		got := 0
		for got < 200 {
			select {
			case <-nodes[1].Deliveries():
				got++
			case <-deadline:
				return
			}
		}
	}()
	sent := 0
	for sent < 200 {
		if err := nodes[0].Send([]byte("after-fault")); err != nil {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		sent++
	}
	<-done

	// A fault report must arrive on at least one node.
	faulted := false
	timeout := time.After(20 * time.Second)
	for !faulted {
		select {
		case f := <-nodes[0].Faults():
			if f.Network == 1 {
				faulted = true
			}
		case <-timeout:
			t.Fatal("no fault report after killing network 1")
		}
	}
	if f := nodes[0].NetworkFaults(); !f[1] || f[0] {
		t.Fatalf("NetworkFaults = %v, want only network 1 faulty", f)
	}

	// Transparency: the ring id must be unchanged (no membership change).
	ringAfter, members := nodes[0].Ring()
	if ringAfter != ringBefore {
		t.Fatalf("membership changed on network fault: %v -> %v", ringBefore, ringAfter)
	}
	if len(members) != 3 {
		t.Fatalf("members = %v", members)
	}
}

func TestNodeCrashShrinksMembership(t *testing.T) {
	_, nodes := startRing(t, 3, 2, totem.Passive)
	nodes[2].Close()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		_, members := nodes[0].Ring()
		if len(members) == 2 && nodes[0].Operational() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("membership did not shrink after crash")
}

func TestConfigChangesStream(t *testing.T) {
	hub := totem.NewMemHub(2)
	tr1, _ := hub.Join(1)
	n1, err := totem.NewNode(totem.Config{ID: 1, Replication: totem.Active}, tr1)
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()
	// First regular config: the singleton ring.
	select {
	case c := <-n1.ConfigChanges():
		if c.Transitional || len(c.Members) != 1 {
			t.Fatalf("first config %+v", c)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no initial config change")
	}
	// A second node joins: we must observe a transitional then a regular
	// two-member configuration.
	tr2, _ := hub.Join(2)
	n2, err := totem.NewNode(totem.Config{ID: 2, Replication: totem.Active}, tr2)
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	deadline := time.After(15 * time.Second)
	sawTransitional := false
	for {
		select {
		case c := <-n1.ConfigChanges():
			if c.Transitional {
				sawTransitional = true
				continue
			}
			if len(c.Members) == 2 {
				if !sawTransitional {
					t.Fatal("regular config without preceding transitional")
				}
				return
			}
		case <-deadline:
			t.Fatal("two-member config never arrived")
		}
	}
}

func TestSendAfterCloseFails(t *testing.T) {
	hub := totem.NewMemHub(1)
	tr, _ := hub.Join(1)
	n, err := totem.NewNode(totem.Config{ID: 1}, tr)
	if err != nil {
		t.Fatal(err)
	}
	n.Close()
	if err := n.Send([]byte("x")); !errors.Is(err, totem.ErrClosed) {
		t.Fatalf("Send after close = %v", err)
	}
	if err := n.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// TestSendRacingCloseReportsErrClosed: a send that races Close is told
// the node closed, never to retry. The senders together stay far below
// MaxQueued, so no error here can be genuine backpressure.
func TestSendRacingCloseReportsErrClosed(t *testing.T) {
	const (
		rounds  = 20
		senders = 4
		perSend = 100 // senders*perSend is well under MaxQueued (1024)
	)
	for r := 0; r < rounds; r++ {
		hub := totem.NewMemHub(1)
		tr, _ := hub.Join(1)
		n, err := totem.NewNode(totem.Config{ID: 1}, tr)
		if err != nil {
			t.Fatal(err)
		}
		var sent atomic.Int64
		errs := make(chan error, senders)
		for i := 0; i < senders; i++ {
			go func() {
				for j := 0; j < perSend; j++ {
					if err := n.Send([]byte("x")); err != nil {
						errs <- err
						return
					}
					sent.Add(1)
				}
				errs <- nil
			}()
		}
		for sent.Load() < senders*perSend/10 {
			runtime.Gosched()
		}
		n.Close()
		for i := 0; i < senders; i++ {
			if err := <-errs; err != nil && !errors.Is(err, totem.ErrClosed) {
				t.Fatalf("round %d: Send racing Close = %v, want nil or ErrClosed", r, err)
			}
		}
		tr.Close()
	}
}

func TestNewNodeValidation(t *testing.T) {
	hub := totem.NewMemHub(2)
	tr, _ := hub.Join(1)
	if _, err := totem.NewNode(totem.Config{ID: 1}, nil); !errors.Is(err, totem.ErrConfig) {
		t.Fatalf("nil transport: %v", err)
	}
	if _, err := totem.NewNode(totem.Config{ID: 0}, tr); !errors.Is(err, totem.ErrConfig) {
		t.Fatalf("zero id: %v", err)
	}
	if _, err := totem.NewNode(totem.Config{ID: 1, Networks: 5}, tr); !errors.Is(err, totem.ErrConfig) {
		t.Fatalf("network mismatch: %v", err)
	}
	// ActivePassive on 2 networks violates the paper's N >= 3 rule.
	if _, err := totem.NewNode(totem.Config{ID: 1, Replication: totem.ActivePassive}, tr); !errors.Is(err, totem.ErrConfig) {
		t.Fatalf("active-passive on 2 networks: %v", err)
	}
}

func TestUDPTransportRing(t *testing.T) {
	// Three nodes on two redundant "networks", all over 127.0.0.1 with
	// dynamically assigned ports.
	const n = 3
	trs := make([]totem.Transport, n)
	addrs := make([][]string, n)
	for i := 0; i < n; i++ {
		tr, err := totem.NewUDPTransport(totem.UDPConfig{
			ID:     totem.NodeID(i + 1),
			Listen: []string{"127.0.0.1:0", "127.0.0.1:0"},
		})
		if err != nil {
			t.Fatalf("NewUDPTransport: %v", err)
		}
		defer tr.Close()
		trs[i] = tr
		addrs[i] = tr.(interface{ LocalAddrs() []string }).LocalAddrs()
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if err := trs[i].(interface {
				AddPeer(totem.NodeID, []string) error
			}).AddPeer(totem.NodeID(j+1), addrs[j]); err != nil {
				t.Fatalf("AddPeer: %v", err)
			}
		}
	}
	nodes := make([]*totem.Node, n)
	for i := 0; i < n; i++ {
		node, err := totem.NewNode(totem.Config{
			ID:          totem.NodeID(i + 1),
			Replication: totem.Passive,
		}, trs[i])
		if err != nil {
			t.Fatalf("NewNode: %v", err)
		}
		defer node.Close()
		nodes[i] = node
	}
	waitFullRing(t, nodes, n, 20*time.Second)

	if err := nodes[0].Send([]byte("over-udp")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	for _, node := range nodes {
		select {
		case d := <-node.Deliveries():
			if string(d.Payload) != "over-udp" {
				t.Fatalf("payload %q", d.Payload)
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("node %v never delivered over UDP", node.ID())
		}
	}
}
