package totem_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	totem "github.com/totem-rrp/totem"
)

func TestTuneHookAdjustsProtocol(t *testing.T) {
	hub := totem.NewMemHub(2)
	tr, _ := hub.Join(1)
	called := false
	n, err := totem.NewNode(totem.Config{
		ID:          1,
		Replication: totem.Active,
		Tune: func(o *totem.Options) {
			called = true
			o.SRP.MaxQueued = 7
			// Attempting to change the identity must be overridden.
			o.SRP.ID = 99
		},
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if !called {
		t.Fatal("Tune hook not invoked")
	}
	if n.ID() != 1 {
		t.Fatalf("ID = %v (identity must not be tunable)", n.ID())
	}
}

func TestTuneCanMakeConfigInvalid(t *testing.T) {
	hub := totem.NewMemHub(2)
	tr, _ := hub.Join(1)
	_, err := totem.NewNode(totem.Config{
		ID:          1,
		Replication: totem.Active,
		Tune: func(o *totem.Options) {
			o.SRP.WindowSize = -1
		},
	}, tr)
	if !errors.Is(err, totem.ErrConfig) {
		t.Fatalf("invalid tuned config accepted: %v", err)
	}
}

func TestSafeDeliveryThroughAPI(t *testing.T) {
	hub := totem.NewMemHub(2)
	var nodes []*totem.Node
	for id := totem.NodeID(1); id <= 3; id++ {
		tr, _ := hub.Join(id)
		n, err := totem.NewNode(totem.Config{
			ID:          id,
			Replication: totem.Active,
			Delivery:    totem.Safe,
		}, tr)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		nodes = append(nodes, n)
	}
	waitFullRing(t, nodes, 3, 15*time.Second)
	if err := nodes[0].Send([]byte("safely")); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		select {
		case d := <-n.Deliveries():
			if string(d.Payload) != "safely" {
				t.Fatalf("payload %q", d.Payload)
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("node %v: safe delivery never happened", n.ID())
		}
	}
}

func TestActivePassiveThroughAPI(t *testing.T) {
	hub := totem.NewMemHub(3)
	var nodes []*totem.Node
	for id := totem.NodeID(1); id <= 3; id++ {
		tr, _ := hub.Join(id)
		n, err := totem.NewNode(totem.Config{
			ID:          id,
			Replication: totem.ActivePassive,
			K:           2,
		}, tr)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		nodes = append(nodes, n)
	}
	waitFullRing(t, nodes, 3, 15*time.Second)
	if err := nodes[1].Send([]byte("k-of-n")); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-nodes[2].Deliveries():
		if string(d.Payload) != "k-of-n" {
			t.Fatalf("payload %q", d.Payload)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("no delivery under active-passive")
	}
}

func TestRingBeforeFormationIsZero(t *testing.T) {
	// A node with no transport traffic forms a singleton almost
	// instantly, so probe the pre-formation window via a fresh node and
	// accept either the zero ring or the singleton.
	hub := totem.NewMemHub(1)
	tr, _ := hub.Join(1)
	n, err := totem.NewNode(totem.Config{ID: 1}, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ring, members := n.Ring()
		if len(members) == 1 && ring.Rep == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("singleton never formed: ring=%v members=%v", ring, members)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestConcurrentSendersPreserveTotalOrder(t *testing.T) {
	_, nodes := startRing(t, 3, 2, totem.Passive)
	const perSender = 50
	var wg sync.WaitGroup
	for _, n := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				payload := []byte(fmt.Sprintf("%v:%d", n.ID(), i))
				for n.Send(payload) != nil {
					time.Sleep(time.Millisecond)
				}
			}
		}()
	}
	wg.Wait()
	total := perSender * len(nodes)
	collect := func(n *totem.Node) []string {
		var got []string
		deadline := time.After(20 * time.Second)
		for len(got) < total {
			select {
			case d := <-n.Deliveries():
				got = append(got, string(d.Payload))
			case <-deadline:
				return got
			}
		}
		return got
	}
	var seqs [][]string
	for _, n := range nodes {
		seqs = append(seqs, collect(n))
	}
	for i, s := range seqs {
		if len(s) != total {
			t.Fatalf("node %d delivered %d/%d", i+1, len(s), total)
		}
	}
	for i := 1; i < len(seqs); i++ {
		for j := range seqs[0] {
			if seqs[i][j] != seqs[0][j] {
				t.Fatalf("divergence at %d: %q vs %q", j, seqs[i][j], seqs[0][j])
			}
		}
	}
	// Per-sender FIFO: messages from one sender appear in submission order.
	for _, n := range nodes {
		last := -1
		for _, p := range seqs[0] {
			var sender totem.NodeID
			var i int
			if _, err := fmt.Sscanf(p, "n%d:%d", &sender, &i); err != nil {
				continue
			}
			if sender == n.ID() {
				if i != last+1 {
					t.Fatalf("sender %v FIFO violated: %d after %d", n.ID(), i, last)
				}
				last = i
			}
		}
	}
}

func TestBackpressureSurfacesAsError(t *testing.T) {
	hub := totem.NewMemHub(2)
	// Two-node ring; crash the peer by closing it so the queue backs up.
	tr1, _ := hub.Join(1)
	tr2, _ := hub.Join(2)
	n1, err := totem.NewNode(totem.Config{
		ID: 1, Replication: totem.Active,
		Tune: func(o *totem.Options) { o.SRP.MaxQueued = 4 },
	}, tr1)
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()
	n2, err := totem.NewNode(totem.Config{ID: 2, Replication: totem.Active}, tr2)
	if err != nil {
		t.Fatal(err)
	}
	waitFullRing(t, []*totem.Node{n1, n2}, 2, 15*time.Second)
	n2.Close()
	tr2.Close()
	// With the ring dead, at most MaxQueued submissions are accepted.
	deadline := time.Now().Add(20 * time.Second)
	for {
		if err := n1.Send(make([]byte, 8)); errors.Is(err, totem.ErrBackpressure) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("backpressure never surfaced")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestReadmitNetworkRestoresReplication(t *testing.T) {
	hub, nodes := startRing(t, 3, 2, totem.Active)
	hub.KillNetwork(1)

	// Drive traffic until everyone convicts network 1.
	deadline := time.Now().Add(30 * time.Second)
	for {
		nodes[0].Send([]byte("x"))
		allFaulted := true
		for _, n := range nodes {
			f := n.NetworkFaults()
			if !f[1] {
				allFaulted = false
			}
		}
		if allFaulted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("network 1 never convicted")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The administrator repairs the network and readmits it everywhere.
	hub.ReviveNetwork(1)
	for _, n := range nodes {
		n.ReadmitNetwork(1)
	}
	for _, n := range nodes {
		if f := n.NetworkFaults(); f[1] {
			t.Fatalf("node %v still faulty after readmit: %v", n.ID(), f)
		}
	}

	// Traffic must flow on network 1 again without an instant re-fault.
	tx := nodes[1].Metrics().Counter("rrp.net1.tx_packets")
	before := tx.Count()
	for i := 0; i < 50; i++ {
		for nodes[1].Send([]byte("after-repair")) != nil {
			time.Sleep(time.Millisecond)
		}
	}
	deadline = time.Now().Add(20 * time.Second)
	for {
		if tx.Count() > before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no traffic on readmitted network")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if f := nodes[1].NetworkFaults(); f[1] {
		t.Fatal("readmitted network instantly re-faulted")
	}
}

func TestStatsSnapshot(t *testing.T) {
	_, nodes := startRing(t, 2, 2, totem.Passive)
	if err := nodes[0].Send([]byte("counted")); err != nil {
		t.Fatal(err)
	}
	<-nodes[1].Deliveries()
	reg := nodes[1].Metrics()
	if v, _ := reg.Get("srp.msgs_delivered"); v == 0 {
		t.Fatal("srp.msgs_delivered not counted")
	}
	var rx int64
	for _, name := range []string{"rrp.net0.rx_packets", "rrp.net1.rx_packets"} {
		v, ok := reg.Get(name)
		if !ok {
			t.Fatalf("per-network counter %s missing", name)
		}
		rx += v
	}
	if rx == 0 {
		t.Fatal("no received packets counted")
	}
}
