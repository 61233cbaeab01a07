package totem_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	totem "github.com/totem-rrp/totem"
)

// startShardedRing boots n nodes with M shards each on a fresh MemHub and
// waits until every shard of every node is operational with full
// membership.
func startShardedRing(t *testing.T, n, networks, shards int) []*totem.Node {
	t.Helper()
	return startShardedRingOn(t, totem.NewMemHub(networks), n, shards, nil)
}

// startShardedRingOn is startShardedRing on the caller's hub; tune, when
// non-nil, further adjusts every node's options.
func startShardedRingOn(t *testing.T, hub *totem.MemHub, n, shards int, tune func(*totem.Options)) []*totem.Node {
	t.Helper()
	nodes := make([]*totem.Node, 0, n)
	for i := 1; i <= n; i++ {
		tr, err := hub.Join(totem.NodeID(i))
		if err != nil {
			t.Fatalf("Join: %v", err)
		}
		node, err := totem.NewNode(totem.Config{
			ID:          totem.NodeID(i),
			Replication: totem.Passive,
			Shards:      shards,
			Tune:        tune,
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
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		ok := true
		for _, node := range nodes {
			if !node.Operational() {
				ok = false
				break
			}
			for s := 0; s < node.Shards(); s++ {
				if _, members := node.RingOf(s); len(members) != n {
					ok = false
					break
				}
			}
		}
		if ok {
			return nodes
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, node := range nodes {
		for s := 0; s < node.Shards(); s++ {
			r, m := node.RingOf(s)
			t.Logf("node %v shard %d: op=%v ring=%v members=%v", node.ID(), s, node.OperationalOf(s), r, m)
		}
	}
	t.Fatal("sharded rings did not form")
	return nil
}

// delivRecord captures the fields that must agree across nodes.
type delivRecord struct {
	Shard   int
	Sender  totem.NodeID
	Payload string
}

// collect drains node deliveries until total records arrive or the budget
// expires.
func collect(t *testing.T, node *totem.Node, total int, budget time.Duration) []delivRecord {
	t.Helper()
	var out []delivRecord
	timeout := time.After(budget)
	for len(out) < total {
		select {
		case d := <-node.Deliveries():
			out = append(out, delivRecord{Shard: d.Shard, Sender: d.Sender, Payload: string(d.Payload)})
		case <-timeout:
			t.Fatalf("node %v delivered %d/%d before timeout", node.ID(), len(out), total)
		}
	}
	return out
}

// TestShardedRingRoutesKeysAndOrdersPerShard: M independent rings form,
// SendKeyed routes deterministically, and each shard's subsequence is
// identical on every node.
func TestShardedRingRoutesKeysAndOrdersPerShard(t *testing.T) {
	const (
		numNodes = 3
		shards   = 4
		perNode  = 40
	)
	nodes := startShardedRing(t, numNodes, 2, shards)

	for i := 0; i < perNode; i++ {
		for _, n := range nodes {
			key := []byte(fmt.Sprintf("key-%d", i))
			if err := n.SendKeyed(key, []byte(fmt.Sprintf("%v/%d", n.ID(), i))); err != nil {
				t.Fatalf("SendKeyed: %v", err)
			}
		}
	}
	total := perNode * numNodes
	seqs := make([][]delivRecord, numNodes)
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func(i int, n *totem.Node) {
			defer wg.Done()
			seqs[i] = collect(t, n, total, 20*time.Second)
		}(i, n)
	}
	wg.Wait()

	// Each key's messages landed on the shard ShardOf names, on every node.
	want := nodes[0]
	for _, seq := range seqs {
		for _, r := range seq {
			var idx int
			if _, err := fmt.Sscanf(r.Payload[strings.IndexByte(r.Payload, '/')+1:], "%d", &idx); err != nil {
				t.Fatalf("unparseable payload %q: %v", r.Payload, err)
			}
			key := []byte(fmt.Sprintf("key-%d", idx))
			if r.Shard != want.ShardOf(key) {
				t.Fatalf("payload %q delivered on shard %d, ShardOf says %d", r.Payload, r.Shard, want.ShardOf(key))
			}
		}
	}
	// Per-shard subsequences are identical across nodes (the cross-shard
	// interleaving is not ordered).
	perShard := func(seq []delivRecord, s int) []delivRecord {
		var out []delivRecord
		for _, r := range seq {
			if r.Shard == s {
				out = append(out, r)
			}
		}
		return out
	}
	for s := 0; s < shards; s++ {
		ref := perShard(seqs[0], s)
		if len(ref) == 0 {
			t.Fatalf("shard %d received nothing — key spread broken", s)
		}
		for i := 1; i < numNodes; i++ {
			if !reflect.DeepEqual(perShard(seqs[i], s), ref) {
				t.Fatalf("shard %d order differs between node %v and node %v", s, nodes[i].ID(), nodes[0].ID())
			}
		}
	}
}

// TestDefaultShardFuncRangeAndStability pins the default key→shard
// mapping: a changed hash would silently reroute keys between versions
// of the binary. The pinned keys are the ones examples/sharding prints.
func TestDefaultShardFuncRangeAndStability(t *testing.T) {
	for key, want := range map[string]int{
		"account:dave":  0,
		"account:bob":   1,
		"account:alice": 2,
		"account:carol": 3,
	} {
		if got := totem.DefaultShardFunc([]byte(key), 4); got != want {
			t.Errorf("DefaultShardFunc(%q, 4) = %d, want %d", key, got, want)
		}
	}
	counts := make([]int, 8)
	for i := 0; i < 4096; i++ {
		s := totem.DefaultShardFunc([]byte(fmt.Sprintf("key-%d", i)), 8)
		if s < 0 || s >= 8 {
			t.Fatalf("hash out of range: %d", s)
		}
		counts[s]++
	}
	for s, n := range counts {
		if n < 4096/8/2 {
			t.Fatalf("shard %d badly underloaded: %d/4096", s, n)
		}
	}
}

// TestShardKnobValidation covers the Config shard knobs.
func TestShardKnobValidation(t *testing.T) {
	hub := totem.NewMemHub(1)
	tr, _ := hub.Join(9)

	for _, bad := range []int{-1, totem.MaxShards + 1} {
		if _, err := totem.NewNode(totem.Config{ID: 9, Networks: 1, Shards: bad}, tr); !errors.Is(err, totem.ErrConfig) {
			t.Fatalf("Shards=%d: err=%v, want ErrConfig", bad, err)
		}
	}

	// Shards 0 and 1 both mean the classic single ring.
	n, err := totem.NewNode(totem.Config{ID: 9, Networks: 1}, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if n.Shards() != 1 {
		t.Fatalf("default Shards() = %d, want 1", n.Shards())
	}
	if got := n.ShardOf([]byte("anything")); got != 0 {
		t.Fatalf("single-ring ShardOf = %d", got)
	}
	// SendKeyed degrades to Send on one shard.
	if err := n.SendKeyed([]byte("k"), []byte("v")); err != nil {
		t.Fatalf("single-ring SendKeyed: %v", err)
	}

	// A broken user ShardFunc surfaces as ErrConfig at send time.
	hub2 := totem.NewMemHub(1)
	tr2, _ := hub2.Join(3)
	bad, err := totem.NewNode(totem.Config{
		ID: 3, Networks: 1, Shards: 2,
		ShardFunc: func(key []byte, shards int) int { return shards + 1 },
	}, tr2)
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	if err := bad.SendKeyed([]byte("k"), []byte("v")); !errors.Is(err, totem.ErrConfig) {
		t.Fatalf("out-of-range ShardFunc: err=%v, want ErrConfig", err)
	}
}

// recordingTransport captures every frame a node puts on the wire.
type recordingTransport struct {
	totem.Transport
	mu     sync.Mutex
	frames [][]byte
}

func (r *recordingTransport) Send(network int, dest totem.NodeID, data []byte) error {
	r.mu.Lock()
	r.frames = append(r.frames, append([]byte(nil), data...))
	r.mu.Unlock()
	return r.Transport.Send(network, dest, data)
}

func (r *recordingTransport) sent() [][]byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([][]byte, len(r.frames))
	copy(out, r.frames)
	return out
}

// TestSingleShardStaysEnvelopeFree: the M=1 path must put exactly the
// pre-sharding bytes on the wire — no shard envelope, ever — and a
// Shards=1 node's first wire frame must be byte-identical to a Shards=0
// node's.
func TestSingleShardStaysEnvelopeFree(t *testing.T) {
	boot := func(shards int) [][]byte {
		hub := totem.NewMemHub(1)
		tr, err := hub.Join(5)
		if err != nil {
			t.Fatal(err)
		}
		rec := &recordingTransport{Transport: tr}
		n, err := totem.NewNode(totem.Config{ID: 5, Networks: 1, Shards: shards}, rec)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		deadline := time.Now().Add(10 * time.Second)
		for !n.Operational() && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if err := n.Send([]byte("solo")); err != nil {
			t.Fatal(err)
		}
		select {
		case d := <-n.Deliveries():
			if string(d.Payload) != "solo" || d.Shard != 0 {
				t.Fatalf("unexpected delivery %+v", d)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("no delivery")
		}
		return rec.sent()
	}

	zero := boot(0)
	one := boot(1)
	for _, frames := range [][][]byte{zero, one} {
		for _, f := range frames {
			if len(f) >= 2 && f[0] == 'T' && f[1] == 'S' {
				t.Fatalf("single-ring node emitted a shard envelope: % x", f[:8])
			}
		}
	}
	if len(zero) == 0 || len(one) == 0 {
		t.Fatal("no frames recorded")
	}
	if !bytes.Equal(zero[0], one[0]) {
		t.Fatalf("first frame differs between Shards=0 and Shards=1:\n% x\n% x", zero[0], one[0])
	}
}

// TestCloseIdempotentAcrossShardCounts: double Close is a no-op for both
// the single-ring and the sharded node.
func TestCloseIdempotentAcrossShardCounts(t *testing.T) {
	for _, shards := range []int{1, 4} {
		hub := totem.NewMemHub(2)
		tr, _ := hub.Join(1)
		n, err := totem.NewNode(totem.Config{ID: 1, Networks: 2, Replication: totem.Active, Shards: shards}, tr)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Close(); err != nil {
			t.Fatalf("first Close: %v", err)
		}
		if err := n.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
		if err := n.Send([]byte("x")); !errors.Is(err, totem.ErrClosed) {
			t.Fatalf("Send after Close: %v", err)
		}
		if err := n.SendKeyed([]byte("k"), []byte("x")); !errors.Is(err, totem.ErrClosed) {
			t.Fatalf("SendKeyed after Close: %v", err)
		}
	}
}

// TestCloseWithBlockedDeliveriesReader: a goroutine blocked on
// Deliveries() observes channel close rather than hanging forever.
func TestCloseWithBlockedDeliveriesReader(t *testing.T) {
	for _, shards := range []int{1, 3} {
		hub := totem.NewMemHub(1)
		tr, _ := hub.Join(1)
		n, err := totem.NewNode(totem.Config{ID: 1, Networks: 1, Shards: shards}, tr)
		if err != nil {
			t.Fatal(err)
		}
		unblocked := make(chan struct{})
		go func() {
			for range n.Deliveries() {
			}
			close(unblocked)
		}()
		time.Sleep(50 * time.Millisecond) // let the reader park
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
		select {
		case <-unblocked:
		case <-time.After(10 * time.Second):
			t.Fatalf("shards=%d: blocked Deliveries reader never unblocked after Close", shards)
		}
	}
}

// TestCloseWithInFlightDeliveries: closing while messages are still being
// ordered and queued must not deadlock or panic, and the node's channels
// must still close.
func TestCloseWithInFlightDeliveries(t *testing.T) {
	nodes := startShardedRing(t, 2, 2, 3)
	for i := 0; i < 50; i++ {
		key := []byte(fmt.Sprintf("k%d", i))
		_ = nodes[0].SendKeyed(key, []byte("inflight"))
	}
	done := make(chan struct{})
	go func() {
		for range nodes[0].Deliveries() {
		}
		for range nodes[0].Faults() {
		}
		for range nodes[0].ConfigChanges() {
		}
		for range nodes[0].FaultsCleared() {
		}
		close(done)
	}()
	time.Sleep(20 * time.Millisecond) // let some deliveries get in flight
	if err := nodes[0].Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("event channels never closed after Close with in-flight deliveries")
	}
}

// TestBlockedDeliveriesReaderShedsNothing pins the backpressure contract
// documented on transport.Queue: a consumer that stops draining
// Deliveries leaves the node's delivery queue buffering — nothing is shed
// and nothing is reordered, while every shard's ring keeps turning. We
// push thousands of messages while one node's reader is parked, then
// resume it and require every message exactly once, in the same
// per-shard order a never-blocked node saw.
func TestBlockedDeliveriesReaderShedsNothing(t *testing.T) {
	const total = 3000
	nodes := startShardedRing(t, 2, 2, 2)
	sender, blocked := nodes[0], nodes[1]

	// The sender's own reader drains freely and records the reference
	// per-shard order.
	refCh := make(chan map[int][]string, 1)
	go func() {
		ref := make(map[int][]string)
		seen := 0
		for d := range sender.Deliveries() {
			ref[d.Shard] = append(ref[d.Shard], string(d.Payload))
			if seen++; seen == total {
				break
			}
		}
		refCh <- ref
	}()

	// The blocked node's reader does not run yet: its deliveries must
	// wait in the queue without shedding. Send everything while it is
	// parked.
	for i := 0; i < total; i++ {
		key := []byte(fmt.Sprintf("key-%d", i%17))
		for {
			err := sender.SendKeyed(key, []byte(fmt.Sprintf("m%d", i)))
			if err == nil {
				break
			}
			if !errors.Is(err, totem.ErrBackpressure) {
				t.Fatalf("send %d: %v", i, err)
			}
			// The sender outran the ring's ordering rate, not the blocked
			// reader: flow control pushes back on the send queue. Yield
			// and retry — the blocked consumer must never be what clears.
			time.Sleep(time.Millisecond)
		}
	}

	// All messages ordered (the free-running node saw every one) while
	// the other reader was still parked.
	var ref map[int][]string
	select {
	case ref = <-refCh:
	case <-time.After(60 * time.Second):
		t.Fatal("free-running node never received the full stream")
	}

	// Now resume the blocked reader: every message must arrive, exactly
	// once, in the reference per-shard order.
	got := make(map[int][]string)
	seen := 0
	deadline := time.After(60 * time.Second)
	for seen < total {
		select {
		case d, ok := <-blocked.Deliveries():
			if !ok {
				t.Fatalf("Deliveries closed after %d/%d messages", seen, total)
			}
			got[d.Shard] = append(got[d.Shard], string(d.Payload))
			seen++
		case <-deadline:
			t.Fatalf("blocked reader resumed but only %d/%d messages arrived — something was shed", seen, total)
		}
	}
	if !reflect.DeepEqual(ref, got) {
		t.Fatal("resumed reader saw a different per-shard sequence than the never-blocked node")
	}
}

// TestCloseLeavesNoGoroutines: Close on a node whose streams nobody reads
// stops every goroutine the node started, however many deliveries are
// still queued, at every shard count.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
	}{
		{"shards=1", 1},
		{"shards=2", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			hub := totem.NewMemHub(1)
			tr, err := hub.Join(1)
			if err != nil {
				t.Fatal(err)
			}
			n, err := totem.NewNode(totem.Config{ID: 1, Shards: tc.shards}, tr)
			if err != nil {
				t.Fatal(err)
			}
			const total = 3000
			for i := 0; i < total; i++ {
				key := []byte(fmt.Sprintf("key-%d", i))
				for {
					err := n.SendKeyed(key, []byte("undrained"))
					if err == nil {
						break
					}
					if !errors.Is(err, totem.ErrBackpressure) {
						t.Fatalf("send %d: %v", i, err)
					}
					time.Sleep(time.Millisecond)
				}
			}
			// Wait until every message is delivered into the unread
			// stream, so Close meets a full backlog.
			deadline := time.Now().Add(20 * time.Second)
			for delivered(n) < total {
				if time.Now().After(deadline) {
					t.Fatalf("only %d/%d delivered", delivered(n), total)
				}
				time.Sleep(5 * time.Millisecond)
			}
			n.Close()
			tr.Close()
			deadline = time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after Close, %d before the node", runtime.NumGoroutine(), base)
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

// delivered sums the messages node n's rings have delivered.
func delivered(n *totem.Node) int64 {
	var sum int64
	for s := 0; s < n.Shards(); s++ {
		v, _ := n.MetricsOf(s).Get("srp.msgs_delivered")
		sum += v
	}
	return sum
}

// TestEveryStreamCarriesItsShard: configuration changes, fault reports
// and readmissions name the shard whose ring raised them. A physical
// network fault surfaces once per shard, since each shard's monitors
// watch the network on their own.
func TestEveryStreamCarriesItsShard(t *testing.T) {
	const shards = 3
	hub := totem.NewMemHub(2)
	nodes := startShardedRingOn(t, hub, 2, shards, func(o *totem.Options) {
		o.RRP.DecayInterval = 100 * time.Millisecond
		o.RRP.ProbationWindows = 2
	})

	for _, node := range nodes {
		regular := make(map[int]bool)
		timeout := time.After(10 * time.Second)
		for len(regular) < shards {
			select {
			case c := <-node.ConfigChanges():
				if c.Shard < 0 || c.Shard >= shards {
					t.Fatalf("node %v: %v tagged shard %d", node.ID(), c, c.Shard)
				}
				if !c.Transitional && len(c.Members) == len(nodes) {
					regular[c.Shard] = true
				}
			case <-timeout:
				t.Fatalf("node %v: full regular configurations by shard: %v", node.ID(), regular)
			}
		}
	}

	// Keyed traffic on every shard feeds each shard's monitors.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = nodes[0].SendKeyed([]byte(fmt.Sprintf("key-%d", i%16)), []byte("load"))
			time.Sleep(time.Millisecond)
		}
	}()
	for _, node := range nodes {
		go func(node *totem.Node) {
			for range node.Deliveries() {
			}
		}(node)
	}

	hub.KillNetwork(1)
	for _, node := range nodes {
		onePerShard(t, node.ID(), shards, node.Faults(), func(f totem.FaultReport) (int, int) { return f.Shard, f.Network })
	}
	hub.ReviveNetwork(1)
	for _, node := range nodes {
		onePerShard(t, node.ID(), shards, node.FaultsCleared(), func(c totem.ClearReport) (int, int) { return c.Shard, c.Network })
	}
}

// onePerShard reads ch until every shard has reported network 1, failing
// on a report for another network, an out-of-range shard, or a second
// report from the same shard (checked for a further 200ms).
func onePerShard[T any](t *testing.T, id totem.NodeID, shards int, ch <-chan T, tag func(T) (shard, network int)) {
	t.Helper()
	seen := make(map[int]bool)
	timeout := time.After(30 * time.Second)
	for len(seen) < shards {
		select {
		case ev := <-ch:
			s, net := tag(ev)
			if s < 0 || s >= shards || seen[s] || net != 1 {
				t.Fatalf("node %v: unexpected %+v (already seen shards %v)", id, ev, seen)
			}
			seen[s] = true
		case <-timeout:
			t.Fatalf("node %v: reports only from shards %v", id, seen)
		}
	}
	select {
	case ev := <-ch:
		t.Fatalf("node %v: report after every shard's first: %+v", id, ev)
	case <-time.After(200 * time.Millisecond):
	}
}
