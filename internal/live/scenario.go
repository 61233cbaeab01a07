package live

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	totem "github.com/totem-rrp/totem"
	"github.com/totem-rrp/totem/internal/logd"
	"github.com/totem-rrp/totem/internal/proto"
	"github.com/totem-rrp/totem/internal/transport"
	"github.com/totem-rrp/totem/logdclient"
)

// Load is the shape of the traffic a scenario offers.
type Load int

const (
	// Saturate runs one closed-loop submitter per (node, shard); every
	// payload carries its send time.
	Saturate Load = iota
	// Probes has every node but node 1 send one timestamped message per
	// probeInterval: latency on a lightly loaded ring.
	Probes
	// ProbesBulkLane is Probes while node 1 streams transfers back to back
	// through SendBulk, on the rate-limited bulk lane.
	ProbesBulkLane
	// ProbesBulkSend is Probes while node 1 pushes the same chunks through
	// Send — the pre-lane protocol, bulk and probes sharing one FIFO.
	ProbesBulkSend
	// Appends runs closed-loop logdclient writers against a logd cluster
	// built on the ring: client-observed commit latency.
	Appends
)

// Scenario is one row of the live bench table: a cluster shape, a load
// shape and a fault schedule. Every live measurement is a Scenario handed
// to Run; internal/bench holds the table.
type Scenario struct {
	Name string

	// Cluster shape. Transport is "udp" (bare loopback sockets on the
	// WirePath kernel driver, "" = auto) or "mem" (the in-process hub);
	// RotateLat, mem only, is a uniform per-datagram latency floor that
	// makes a ring rotation-bound — the paper's LAN regime — not CPU-bound.
	Nodes, Networks int
	Transport       string
	WirePath        string
	RotateLat       time.Duration
	Shards          int

	// Load shape. MsgLen is the payload of one message, probe or record.
	Load   Load
	MsgLen int

	// Faults overlaps the logd torture schedule with the window: a loss
	// burst on network 0, then a kill -9 and a restart of one member.
	// Appends only.
	Faults bool
}

// Point is one measured scenario. Metric names are the BENCH_hotpath.json
// field names (msgs_per_sec, syscalls_per_msg, p99_latency_us,
// bulk_mb_per_sec, duplicates, …); Metrics lists which a scenario reports.
type Point struct {
	Scenario string             `json:"scenario"`
	Metrics  map[string]float64 `json:"metrics"`
}

// Sizes and paces no caller varies.
const (
	formTimeout   = 15 * time.Second
	warmup        = 300 * time.Millisecond // load runs this long before the window opens
	probeInterval = time.Millisecond
	transferBytes = 4 << 20 // one SendBulk transfer
	chunkBytes    = 8192    // BulkOptions' default chunk, and what ProbesBulkSend sends
	logdWriters   = 8
	maxSamples    = 1 << 17
	bulkSender    = proto.NodeID(1)
)

// benchTune is liveTune with the token-loss timeout benchmark/cluster.go
// pins: liveTune's 50 ms is compressed for torture phases and shorter than
// the stack's own hiccups on two CPUs, so an unfaulted ring re-forms every
// 10-30 s and a run measures how much of it passed before that.
func benchTune(o *totem.Options) {
	liveTune(o)
	o.SRP.TokenLossTimeout = 200 * time.Millisecond
}

// wireCounters are the per-network transport counters read from each
// node's registry and summed.
var wireCounters = []string{
	"tx_datagrams", "tx_syscalls", "rx_datagrams", "rx_syscalls", "tx_errors", "rx_dropped",
}

// Metrics lists the metric names a Point of this scenario carries.
func (sc Scenario) Metrics() []string {
	out := []string{"nodes", "networks", "duration_sec", "p50_latency_us", "p99_latency_us"}
	switch sc.Load {
	case Saturate:
		out = append(out, "msg_len", "shards", "delivered", "msgs_per_sec", "kbytes_per_sec")
		for s := 0; s < sc.Shards; s++ {
			out = append(out, fmt.Sprintf("shard%d_msgs_per_sec", s))
		}
		if sc.Transport == "udp" {
			out = append(append(out, wireCounters...), "syscalls_per_msg")
		}
	case Appends:
		out = append(out, "payload_bytes", "clients", "appends", "failures", "appends_per_sec", "duplicates")
	default:
		out = append(out, "msg_len", "probes", "bulk_bytes", "bulk_mb_per_sec", "bulk_transfers")
	}
	return out
}

func (sc Scenario) validate() error {
	switch {
	case sc.Nodes < 2 || sc.Networks < 1 || sc.Shards < 1:
		return fmt.Errorf("needs Nodes >= 2, Networks >= 1, Shards >= 1")
	case sc.MsgLen < 8:
		return fmt.Errorf("MsgLen %d leaves no room for the 8-byte send time", sc.MsgLen)
	case sc.Load < Saturate || sc.Load > Appends:
		return fmt.Errorf("unknown load %d", sc.Load)
	case sc.Faults && sc.Load != Appends:
		return fmt.Errorf("the fault schedule kills a logd member: Appends only")
	case sc.Load == Appends && sc.Shards != 1:
		return fmt.Errorf("logd runs on one ring")
	case sc.RotateLat > 0 && sc.Transport != "mem":
		return fmt.Errorf("RotateLat needs the mem transport")
	}
	return nil
}

// sampler is the one latency collector: taps and writers observe into it,
// and only what they observe between start and stop is kept.
type sampler struct {
	mu   sync.Mutex
	open bool
	lats []time.Duration
}

func (s *sampler) observe(d time.Duration) {
	s.mu.Lock()
	if s.open && len(s.lats) < maxSamples {
		s.lats = append(s.lats, d)
	}
	s.mu.Unlock()
}

func (s *sampler) isOpen() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.open
}

func (s *sampler) start() {
	s.mu.Lock()
	s.open = true
	s.mu.Unlock()
}

func (s *sampler) stop() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.open = false
	return s.lats
}

// percentile sorts lats in place and returns the requested percentiles in
// microseconds (0 without samples) — the one latency sort of the live
// harness.
func percentile(lats []time.Duration, pcts ...int) []float64 {
	slices.Sort(lats)
	out := make([]float64, len(pcts))
	for i, p := range pcts {
		if n := len(lats); n > 0 {
			out[i] = float64(lats[min(n*p/100, n-1)]) / float64(time.Microsecond)
		}
	}
	return out
}

// run is one scenario in flight.
type run struct {
	sc    Scenario
	epoch time.Time
	lat   sampler
	tick  atomic.Uint64 // deliveries seen by any tap, for 1-in-n sampling

	// Ring loads: the nodes and what their delivery taps count.
	fab       *fabric
	nodes     []*totem.Node
	trs       []transport.Transport
	delivered atomic.Uint64   // small messages, summed over nodes
	perShard  []atomic.Uint64 // the same, by ring
	bulkBytes atomic.Uint64   // stream payload bytes, summed over nodes
	bulkRecv  []atomic.Uint64 // completed transfers delivered, by node
	bulkSent  atomic.Uint64   // transfers the sender saw complete

	// Appends: the logd cluster, its writers and what they count.
	logd     *LogdCluster
	dir      string
	clients  []*logdclient.Client
	appends  atomic.Uint64
	failures atomic.Uint64
}

// Run boots the scenario's cluster, waits until every node lists every
// member, runs the load through a warm-up, measures a window of dur (the
// fault schedule, if any, inside it), drains, and reports the point. It is
// the one way a live measurement is taken.
func Run(sc Scenario, dur time.Duration) (Point, error) {
	fail := func(err error) (Point, error) {
		return Point{}, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	if err := sc.validate(); err != nil {
		return fail(err)
	}
	if sc.Faults {
		// The schedule needs room for reformation and catch-up in the window.
		dur *= 2
	}
	r := &run{sc: sc, epoch: time.Now()}
	defer r.close()
	if err := r.boot(); err != nil {
		return fail(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	r.startLoad(stop, &wg)
	time.Sleep(warmup)

	before := r.counters()
	r.lat.start()
	start := time.Now()
	err := r.window(dur)
	elapsed := time.Since(start)
	lats := r.lat.stop()
	after := r.counters()
	close(stop)
	wg.Wait()
	if err != nil {
		return fail(err)
	}

	m := map[string]float64{
		"nodes":        float64(sc.Nodes),
		"networks":     float64(sc.Networks),
		"duration_sec": elapsed.Seconds(),
	}
	if err := r.drain(m); err != nil {
		return fail(err)
	}
	d := func(name string) float64 { return after[name] - before[name] }
	sec, nodes := elapsed.Seconds(), float64(sc.Nodes)
	switch sc.Load {
	case Saturate:
		msgs := d("delivered") / nodes
		m["msg_len"] = float64(sc.MsgLen)
		m["shards"] = float64(sc.Shards)
		m["delivered"] = d("delivered")
		m["msgs_per_sec"] = msgs / sec
		m["kbytes_per_sec"] = msgs / sec * float64(sc.MsgLen) / 1024
		for s := 0; s < sc.Shards; s++ {
			name := fmt.Sprintf("shard%d", s)
			m[name+"_msgs_per_sec"] = d(name) / nodes / sec
		}
		if sc.Transport == "udp" {
			for _, name := range wireCounters {
				m[name] = d(name)
			}
			m["syscalls_per_msg"] = 0
			if msgs > 0 {
				m["syscalls_per_msg"] = (d("tx_syscalls") + d("rx_syscalls")) / msgs
			}
		}
	case Appends:
		m["payload_bytes"] = float64(sc.MsgLen)
		m["clients"] = logdWriters
		m["appends"] = d("appends")
		m["failures"] = d("failures")
		m["appends_per_sec"] = d("appends") / sec
	default:
		m["msg_len"] = float64(sc.MsgLen)
		m["probes"] = d("delivered")
		m["bulk_bytes"] = d("bulk_bytes") / nodes
		m["bulk_mb_per_sec"] = d("bulk_bytes") / nodes / (1 << 20) / sec
	}
	p := percentile(lats, 50, 99)
	m["p50_latency_us"], m["p99_latency_us"] = p[0], p[1]
	return Point{Scenario: sc.Name, Metrics: m}, nil
}

// boot brings the cluster up and returns once it is ready for load.
func (r *run) boot() error {
	sc := r.sc
	if sc.Load == Appends {
		dir, err := os.MkdirTemp("", "totem-scenario-*")
		if err != nil {
			return err
		}
		r.dir = dir
		r.logd, err = newLogdCluster(LogdClusterOptions{
			Nodes:     sc.Nodes,
			Networks:  sc.Networks,
			Dir:       dir,
			Transport: sc.Transport,
			// Rate bucket off: with the default 500 appends/s per client a
			// closed-loop writer measures the bucket, not the service.
			Server: logd.ServerOptions{Admission: logd.AdmissionOptions{RatePerSec: -1}},
		}, benchTune)
		if err != nil {
			return err
		}
		eps := r.logd.Endpoints()
		for w := 0; w < logdWriters; w++ {
			k := w % len(eps) // writer w prefers member w mod n
			cl, err := logdclient.New(logdclient.Options{
				Endpoints:   append(append([]string(nil), eps[k:]...), eps[:k]...),
				ID:          fmt.Sprintf("bench-%d", w),
				MaxAttempts: 10,
				BaseBackoff: 5 * time.Millisecond,
				MaxBackoff:  200 * time.Millisecond,
			})
			if err != nil {
				return err
			}
			r.clients = append(r.clients, cl)
		}
		return r.logd.WaitLive(2 * formTimeout)
	}

	var nm *Netem
	if sc.RotateLat > 0 {
		// Zero baseline impairment: the netem is here only for its floor,
		// uniform so that the RRP monitors see symmetric networks.
		nm = NewNetem(sc.Networks, NetemParams{Seed: 1})
		for i := 0; i < sc.Networks; i++ {
			nm.SetSlowNet(i, sc.RotateLat)
		}
	}
	fab, err := newFabric(sc.Transport, sc.Nodes, sc.Networks, sc.WirePath, nm)
	if err != nil {
		return err
	}
	r.fab = fab
	r.perShard = make([]atomic.Uint64, sc.Shards)
	r.bulkRecv = make([]atomic.Uint64, sc.Nodes)
	for i, id := range fab.order {
		tr, err := fab.attach(id)
		if err != nil {
			return err
		}
		r.trs = append(r.trs, tr)
		n, err := totem.NewNode(totem.Config{
			ID:          id,
			Networks:    sc.Networks,
			Replication: proto.ReplicationActive,
			Shards:      sc.Shards,
			// Key byte = ring: the submitters address rings directly.
			ShardFunc: func(key []byte, shards int) int { return int(key[0]) % shards },
			Tune: func(o *totem.Options) {
				benchTune(o)
				if sc.RotateLat > 0 {
					// A small flow-control window keeps the ring in the
					// rotation-bound regime the floor establishes: the
					// point is rings×rotation scaling, not queue depth.
					o.SRP.WindowSize = 16
					o.SRP.MaxPerVisit = 4
				}
				o.DeliveryTap = r.tap(i)
			},
		}, tr)
		if err != nil {
			return fmt.Errorf("node %v: %w", id, err)
		}
		r.nodes = append(r.nodes, n)
		// The tap has counted each delivery; drain the application stream
		// so its unbounded queue does not hoard memory.
		go func() {
			for range n.Deliveries() {
			}
		}()
	}
	return waitRing(r.nodes, sc.Shards, formTimeout)
}

// tap is node i's DeliveryTap: stream payload on one side, small messages
// — counted, and their one-way latency sampled — on the other.
func (r *run) tap(i int) func(totem.Delivery) {
	streaming := r.sc.Load == ProbesBulkLane || r.sc.Load == ProbesBulkSend
	// A saturated ring samples 1 delivery in 16: enough for stable
	// percentiles, cheap enough not to perturb the loop.
	every := uint64(1)
	if r.sc.Load == Saturate {
		every = 16
	}
	return func(d totem.Delivery) {
		if d.Bulk || (streaming && d.Sender == bulkSender) {
			r.bulkBytes.Add(uint64(len(d.Payload)))
			if d.Bulk {
				r.bulkRecv[i].Add(1)
			}
			return
		}
		r.delivered.Add(1)
		r.perShard[d.Shard].Add(1)
		if r.tick.Add(1)%every != 0 || len(d.Payload) < 8 {
			return
		}
		sent := time.Duration(binary.BigEndian.Uint64(d.Payload))
		r.lat.observe(time.Since(r.epoch) - sent)
	}
}

// startLoad starts the scenario's load generators; they run until stop.
func (r *run) startLoad(stop <-chan struct{}, wg *sync.WaitGroup) {
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	spawn := func(fn func()) {
		wg.Add(1)
		go func() { defer wg.Done(); fn() }()
	}
	stamp := func(p []byte) { binary.BigEndian.PutUint64(p, uint64(time.Since(r.epoch))) }
	// flood submits size-byte messages as fast as the node takes them,
	// yielding on backpressure. Send owns the payload afterwards, so every
	// message gets fresh bytes, carved from a slab to spare the allocator.
	flood := func(n *totem.Node, shard int, size int, stamped bool) {
		key := []byte{byte(shard)}
		var slab []byte
		for !stopped() {
			if len(slab) < size {
				slab = make([]byte, 512*size)
			}
			payload := slab[:size:size]
			if stamped {
				stamp(payload)
			}
			if err := n.SendKeyed(key, payload); err != nil {
				time.Sleep(100 * time.Microsecond)
				continue // not taken: the bytes are still ours
			}
			slab = slab[size:]
		}
	}

	switch r.sc.Load {
	case Saturate:
		for _, n := range r.nodes {
			for s := 0; s < r.sc.Shards; s++ {
				spawn(func() { flood(n, s, r.sc.MsgLen, true) })
			}
		}
		return
	case Appends:
		for _, cl := range r.clients {
			spawn(func() { r.writer(cl, stopped) })
		}
		return
	}

	for _, n := range r.nodes[1:] {
		spawn(func() {
			tick := time.NewTicker(probeInterval)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				payload := make([]byte, r.sc.MsgLen)
				stamp(payload)
				n.Send(payload) //nolint:errcheck // a dropped probe is just a missing sample
			}
		})
	}
	sender := r.nodes[0]
	switch r.sc.Load {
	case ProbesBulkSend:
		spawn(func() { flood(sender, 0, chunkBytes, false) })
	case ProbesBulkLane:
		spawn(func() {
			payload := make([]byte, transferBytes)
			for !stopped() {
				xfer, err := sender.SendBulk(payload)
				if err != nil {
					time.Sleep(time.Millisecond)
					continue
				}
				// The transfer in flight at stop runs to its end rather than
				// being cancelled: a cancel racing the last acknowledgement
				// would leave a transfer delivered but not completed.
				<-xfer.Done()
				if xfer.Err() == nil {
					r.bulkSent.Add(1)
				}
			}
		})
	}
}

// writer is one closed-loop logd client.
func (r *run) writer(cl *logdclient.Client, stopped func() bool) {
	payload := make([]byte, r.sc.MsgLen)
	for i := range payload {
		payload[i] = byte('a' + i%26)
	}
	for !stopped() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		start := time.Now()
		_, err := cl.Append(ctx, payload)
		lat := time.Since(start)
		cancel()
		switch {
		case !r.lat.isOpen():
		case err != nil:
			r.failures.Add(1)
		default:
			r.appends.Add(1)
			r.lat.observe(lat)
		}
	}
}

// counters snapshots every running count the metrics are differenced from:
// the taps', the writers', and on UDP the wire counters of every node's
// registry — the same numbers /stats serves.
func (r *run) counters() map[string]float64 {
	out := map[string]float64{
		"delivered":  float64(r.delivered.Load()),
		"bulk_bytes": float64(r.bulkBytes.Load()),
		"appends":    float64(r.appends.Load()),
		"failures":   float64(r.failures.Load()),
	}
	for s := range r.perShard {
		out[fmt.Sprintf("shard%d", s)] = float64(r.perShard[s].Load())
	}
	for _, n := range r.nodes {
		for net := 0; net < r.sc.Networks; net++ {
			for _, name := range wireCounters {
				if v, ok := n.Metrics().Get(fmt.Sprintf("udp.net%d.%s", net, name)); ok {
					out[name] += float64(v)
				}
			}
		}
	}
	return out
}

// window holds the measured window open for dur, running the fault
// schedule inside it: a loss burst on network 0 over the second quarter,
// one member killed at half time and restarted at three quarters.
func (r *run) window(dur time.Duration) error {
	if !r.sc.Faults {
		time.Sleep(dur)
		return nil
	}
	quarter := dur / 4
	time.Sleep(quarter)
	r.logd.Netem().SetLoss(0, 0.3)
	time.Sleep(quarter)
	r.logd.Netem().SetLoss(0, 0)
	r.logd.Kill(1)
	time.Sleep(quarter)
	if err := r.logd.Restart(1); err != nil {
		return err
	}
	time.Sleep(quarter)
	return nil
}

// drain runs after the load has stopped: it waits for the cluster to
// settle and adds the metrics that only a settled cluster can give — and
// fails the point when the settled state contradicts what the senders were
// told.
func (r *run) drain(m map[string]float64) error {
	switch r.sc.Load {
	case ProbesBulkLane:
		// Every transfer the sender saw complete must be delivered, whole,
		// on every node; the taps may trail the sender's handle briefly.
		sent := r.bulkSent.Load()
		m["bulk_transfers"] = float64(sent)
		deadline := time.Now().Add(2 * time.Second)
		for i := range r.bulkRecv {
			for r.bulkRecv[i].Load() != sent {
				if time.Now().After(deadline) {
					return fmt.Errorf("sender completed %d bulk transfers, node %d delivered %d",
						sent, i+1, r.bulkRecv[i].Load())
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	case Probes, ProbesBulkSend:
		m["bulk_transfers"] = 0
	case Appends:
		if err := r.logd.WaitLive(60 * time.Second); err != nil {
			return err
		}
		if err := r.logd.WaitConverged(60 * time.Second); err != nil {
			return err
		}
		dups, err := logdDuplicateScan(r.logd.Endpoint(0))
		if err != nil {
			return err
		}
		m["duplicates"] = float64(dups)
	}
	return nil
}

func (r *run) close() {
	for _, n := range r.nodes {
		n.Close()
	}
	for _, tr := range r.trs {
		tr.Close()
	}
	if r.fab != nil {
		r.fab.close()
	}
	if r.logd != nil {
		r.logd.Close()
	}
	if r.dir != "" {
		os.RemoveAll(r.dir)
	}
}

// logdDuplicateScan reads the whole stored log and counts (client, seq)
// identities occupying more than one offset — the zero-duplicates
// invariant a latency number is meaningless without.
func logdDuplicateScan(endpoint string) (uint64, error) {
	rd, err := logdclient.New(logdclient.Options{Endpoints: []string{endpoint}, ID: "bench-reader"})
	if err != nil {
		return 0, err
	}
	type ident struct {
		client string
		seq    uint64
	}
	seen := make(map[ident]struct{})
	var dups, from uint64
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		recs, next, err := rd.Read(ctx, from, 512)
		cancel()
		if err != nil {
			return 0, err
		}
		for _, rec := range recs {
			if rec.Kind != logd.KindData {
				continue
			}
			id := ident{rec.Client, rec.Seq}
			if _, ok := seen[id]; ok {
				dups++
			}
			seen[id] = struct{}{}
		}
		from += uint64(len(recs))
		if from >= next || len(recs) == 0 {
			return dups, nil
		}
	}
}
