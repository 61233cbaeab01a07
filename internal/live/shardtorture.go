package live

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	totem "github.com/totem-rrp/totem"
	"github.com/totem-rrp/totem/internal/proto"
	"github.com/totem-rrp/totem/internal/torture"
	"github.com/totem-rrp/totem/internal/transport"
)

// ShardTortureOptions parameterises one live multi-ring torture run: a
// cluster of Nodes×Shards rings under keyed load while a seeded fault
// program blacks out individual shards — the scenario sharding exists
// for, and the one a single-ring harness cannot express.
type ShardTortureOptions struct {
	// Nodes, Networks, Shards size the cluster (defaults 4, 2, 4).
	Nodes, Networks, Shards int
	// Style names the replication style ("active", "passive", ...);
	// default "passive".
	Style string
	// Transport is "mem" (default) or "udp".
	Transport string
	// WirePath selects the UDP kernel driver; ignored on mem.
	WirePath string
	// Seed fixes the fault program, the load keys and the netem draws.
	Seed int64
	// FaultWindows is the number of one-shard fault windows (default 3);
	// each window blacks out one shard (cluster-wide loss or one node's
	// shard interface, alternating by seed) while the load keeps running.
	FaultWindows int
	// Window and Heal are the wall-clock lengths of each fault window and
	// of the recovery gap after it (defaults 300ms / 200ms).
	Window, Heal time.Duration
	// LoadInterval is the per-node keyed-send period (default 2ms).
	LoadInterval time.Duration
	// Netem is the baseline impairment; nil applies DefaultNetemParams.
	Netem *NetemParams
	// SettleTimeout bounds the post-run convergence wait (default 5s).
	SettleTimeout time.Duration
}

// ShardTortureResult reports one run.
type ShardTortureResult struct {
	// Violations lists every invariant breach; empty means a clean run.
	Violations []string
	// Delivered is the total delivery count across nodes and shards.
	Delivered uint64
	// PerShardDelivered sums deliveries per shard across nodes.
	PerShardDelivered []uint64
	// Windows is the number of fault windows executed.
	Windows int
}

// Ok reports whether the run was violation-free.
func (r *ShardTortureResult) Ok() bool { return len(r.Violations) == 0 }

// shardRec is one delivery as the shard checker records it.
type shardRec struct {
	sender proto.NodeID
	seq    int
	shard  int
}

// shardTortureState tracks per-(node, shard) delivered sequences and
// counts while the cluster runs.
type shardTortureState struct {
	shards int
	mu     sync.Mutex
	// seqs[node][shard] is the delivered record sequence.
	seqs   map[proto.NodeID][][]shardRec
	counts map[proto.NodeID][]uint64
}

func newShardTortureState(shards int) *shardTortureState {
	return &shardTortureState{
		shards: shards,
		seqs:   make(map[proto.NodeID][][]shardRec),
		counts: make(map[proto.NodeID][]uint64),
	}
}

func (st *shardTortureState) record(node proto.NodeID, r shardRec) {
	st.mu.Lock()
	if st.seqs[node] == nil {
		st.seqs[node] = make([][]shardRec, st.shards)
		st.counts[node] = make([]uint64, st.shards)
	}
	st.seqs[node][r.shard] = append(st.seqs[node][r.shard], r)
	st.counts[node][r.shard]++
	st.mu.Unlock()
}

// snapshotCounts returns per-shard delivery counts summed across nodes.
func (st *shardTortureState) snapshotCounts() []uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]uint64, st.shards)
	for _, c := range st.counts {
		for s, v := range c {
			out[s] += v
		}
	}
	return out
}

// perNodeCounts returns a copy of every node's per-shard counts.
func (st *shardTortureState) perNodeCounts() map[proto.NodeID][]uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make(map[proto.NodeID][]uint64, len(st.counts))
	for id, c := range st.counts {
		out[id] = append([]uint64(nil), c...)
	}
	return out
}

// ShardTorture boots the cluster, runs the seeded per-shard fault
// program under keyed load, and checks the multi-ring invariants:
//
//   - isolation: while one shard is blacked out, every other shard keeps
//     delivering (faulting one ring never stalls its siblings);
//   - recovery: after the final heal, every shard delivers fresh traffic
//     on every node;
//   - per-shard safety: no duplicate deliveries, per-sender FIFO, and
//     pairwise order agreement on the messages two nodes share.
func ShardTorture(opt ShardTortureOptions) (*ShardTortureResult, error) {
	if opt.Nodes == 0 {
		opt.Nodes = 4
	}
	if opt.Networks == 0 {
		opt.Networks = 2
	}
	if opt.Shards == 0 {
		opt.Shards = 4
	}
	if opt.Shards < 2 {
		return nil, errors.New("live: shard torture needs Shards >= 2")
	}
	if opt.Style == "" {
		opt.Style = "passive"
	}
	if opt.Transport == "" {
		opt.Transport = "mem"
	}
	if opt.FaultWindows == 0 {
		opt.FaultWindows = 3
	}
	if opt.Window <= 0 {
		opt.Window = 300 * time.Millisecond
	}
	if opt.Heal <= 0 {
		opt.Heal = 200 * time.Millisecond
	}
	if opt.LoadInterval <= 0 {
		opt.LoadInterval = 2 * time.Millisecond
	}
	if opt.SettleTimeout <= 0 {
		opt.SettleTimeout = 5 * time.Second
	}
	style, err := torture.StyleByName(opt.Style)
	if err != nil {
		return nil, err
	}
	np := DefaultNetemParams(opt.Seed)
	if opt.Netem != nil {
		np = *opt.Netem
	}
	nm := NewNetem(opt.Networks, np)
	st := newShardTortureState(opt.Shards)
	res := &ShardTortureResult{}
	violate := func(format string, args ...interface{}) {
		res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
	}

	fab, err := newFabric(opt.Transport, opt.Nodes, opt.Networks, opt.WirePath, nm)
	if err != nil {
		return nil, err
	}
	defer fab.close()
	order := fab.order

	var nodes []*totem.Node // in slot order
	var trs []transport.Transport
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
		for _, tr := range trs {
			tr.Close()
		}
	}()
	for _, id := range order {
		tr, err := fab.attach(id)
		if err != nil {
			return nil, err
		}
		trs = append(trs, tr)
		n, err := totem.NewNode(totem.Config{
			ID:          id,
			Networks:    opt.Networks,
			Replication: style,
			Shards:      opt.Shards,
			Tune:        liveTune,
		}, tr)
		if err != nil {
			return nil, fmt.Errorf("live: node %v: %w", id, err)
		}
		nodes = append(nodes, n)
	}
	if err := waitRing(nodes, opt.Shards, 20*time.Second); err != nil {
		return nil, err
	}

	// Recorders: one consumer per node, decoding the payload we encode in
	// the load loop ("sender/seq").
	var recWG sync.WaitGroup
	var delivered atomic.Uint64
	for i, id := range order {
		recWG.Add(1)
		go func(id proto.NodeID, n *totem.Node) {
			defer recWG.Done()
			for d := range n.Deliveries() {
				var sender, seq int
				if _, err := fmt.Sscanf(string(d.Payload), "%d/%d", &sender, &seq); err != nil {
					continue
				}
				st.record(id, shardRec{sender: proto.NodeID(sender), seq: seq, shard: d.Shard})
				delivered.Add(1)
			}
		}(id, nodes[i])
	}

	// Keyed load: every node spreads a seeded key stream over the shards
	// until stopLoad closes. ErrBackpressure retries; a send rejected
	// because its shard is mid-reconfiguration is simply skipped (the
	// checker tracks delivered traffic, not offered traffic).
	stopLoad := make(chan struct{})
	var loadWG sync.WaitGroup
	for i, id := range order {
		loadWG.Add(1)
		go func(id proto.NodeID, n *totem.Node) {
			defer loadWG.Done()
			rng := rand.New(rand.NewSource(opt.Seed ^ int64(id)<<16))
			seq := 0
			tick := time.NewTicker(opt.LoadInterval)
			defer tick.Stop()
			for {
				select {
				case <-stopLoad:
					return
				case <-tick.C:
					key := []byte(fmt.Sprintf("key-%d", rng.Intn(64*opt.Shards)))
					payload := []byte(fmt.Sprintf("%d/%d", id, seq))
					seq++
					if err := n.SendKeyed(key, payload); err == totem.ErrBackpressure {
						time.Sleep(opt.LoadInterval)
					}
				}
			}
		}(id, nodes[i])
	}

	// The seeded fault program: FaultWindows windows, each blacking out
	// one shard — even windows lose the whole shard cluster-wide, odd
	// windows silence one node's shard interface — with the non-stall
	// assertion judged over each window.
	rng := rand.New(rand.NewSource(opt.Seed))
	for w := 0; w < opt.FaultWindows; w++ {
		sh := rng.Intn(opt.Shards)
		victim := order[rng.Intn(len(order))]
		wholeShard := w%2 == 0
		before := st.snapshotCounts()
		if wholeShard {
			nm.SetShardLoss(sh, 1.0)
		} else {
			nm.BlockShard(victim, sh, true)
		}
		time.Sleep(opt.Window)
		after := st.snapshotCounts()
		for s := 0; s < opt.Shards; s++ {
			if s == sh {
				continue
			}
			if after[s] <= before[s] {
				violate("window %d: shard %d stalled while shard %d was faulted (%d -> %d deliveries)",
					w, s, sh, before[s], after[s])
			}
		}
		if wholeShard {
			nm.SetShardLoss(sh, 0)
		} else {
			nm.BlockShard(victim, sh, false)
		}
		time.Sleep(opt.Heal)
		res.Windows++
	}

	// Post-heal recovery: every shard of every node must deliver fresh
	// traffic once the faults are gone.
	nm.HealAll()
	healDeadline := time.Now().Add(opt.SettleTimeout)
	base := st.perNodeCounts()
	for {
		recovered := true
		now := st.perNodeCounts()
		for _, id := range order {
			for s := 0; s < opt.Shards; s++ {
				if len(now[id]) == 0 || now[id][s] <= baseCount(base, id, s) {
					recovered = false
				}
			}
		}
		if recovered {
			break
		}
		if time.Now().After(healDeadline) {
			for _, id := range order {
				for s := 0; s < opt.Shards; s++ {
					if len(now[id]) == 0 || now[id][s] <= baseCount(base, id, s) {
						violate("post-heal: node %v shard %d delivered nothing after HealAll", id, s)
					}
				}
			}
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	close(stopLoad)
	loadWG.Wait()
	// Let in-flight ordering drain, then stop the cluster so the recorded
	// sequences are final.
	time.Sleep(300 * time.Millisecond)
	for _, n := range nodes {
		n.Close()
	}
	recWG.Wait()

	st.check(order, violate)

	res.Delivered = delivered.Load()
	res.PerShardDelivered = st.snapshotCounts()
	for s, c := range res.PerShardDelivered {
		if c == 0 {
			violate("shard %d delivered nothing over the whole run", s)
		}
	}
	return res, nil
}

func baseCount(m map[proto.NodeID][]uint64, id proto.NodeID, s int) uint64 {
	if c, ok := m[id]; ok && s < len(c) {
		return c[s]
	}
	return 0
}

// check runs the end-of-run safety invariants over the recorded
// sequences.
func (st *shardTortureState) check(order []proto.NodeID, violate func(string, ...interface{})) {
	st.mu.Lock()
	defer st.mu.Unlock()

	key := func(r shardRec) string { return fmt.Sprintf("%v/%d/%d", r.sender, r.seq, r.shard) }

	for _, id := range order {
		seqs := st.seqs[id]
		for s, seq := range seqs {
			// No duplicates, and per-sender FIFO within the shard.
			seen := make(map[string]bool, len(seq))
			last := make(map[proto.NodeID]int)
			for _, r := range seq {
				k := key(r)
				if seen[k] {
					violate("node %v shard %d delivered %s twice", id, s, k)
				}
				seen[k] = true
				if prev, ok := last[r.sender]; ok && r.seq <= prev {
					violate("node %v shard %d broke sender %v FIFO: seq %d after %d", id, s, r.sender, r.seq, prev)
				}
				last[r.sender] = r.seq
			}
		}
	}

	// Pairwise order agreement per shard: restricted to the messages both
	// nodes delivered, the relative order must match.
	agree := func(what string, a, b []shardRec, na, nb proto.NodeID) {
		pos := make(map[string]int, len(b))
		for i, r := range b {
			pos[key(r)] = i
		}
		lastPos := -1
		var lastKey string
		for _, r := range a {
			p, ok := pos[key(r)]
			if !ok {
				continue
			}
			if p <= lastPos {
				violate("%s: nodes %v and %v disagree on order of %s vs %s", what, na, nb, lastKey, key(r))
				return
			}
			lastPos, lastKey = p, key(r)
		}
	}
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			a, b := order[i], order[j]
			for s := 0; s < st.shards; s++ {
				var sa, sb []shardRec
				if st.seqs[a] != nil {
					sa = st.seqs[a][s]
				}
				if st.seqs[b] != nil {
					sb = st.seqs[b][s]
				}
				agree(fmt.Sprintf("shard %d", s), sa, sb, a, b)
			}
		}
	}

	// Sanity on the checker itself: sequences must be non-trivial.
	var total int
	for _, id := range order {
		for _, seq := range st.seqs[id] {
			total += len(seq)
		}
	}
	if total == 0 {
		violate("no deliveries recorded at all")
	}
}
