package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	totem "github.com/totem-rrp/totem"
)

// phases are the fixed parts of a live run around the measured window.
type phases struct {
	warmup time.Duration
	drain  time.Duration
}

// phasesFor: the issue's 2 s warm-up — the send queues, the frame pools and
// the HTTP connections fill in a fraction of that, but a saturated ring runs
// a fifth slower for its first seconds — and 5 s to drain.
func phasesFor(cfg config) phases {
	if cfg.quick {
		return phases{warmup: 200 * time.Millisecond, drain: 2 * time.Second}
	}
	return phases{warmup: 2 * time.Second, drain: 5 * time.Second}
}

// bracket is what the benchmark reads at both edges of a measured window.
type bracket struct {
	proc      procSnap
	reg       map[string]float64
	wireBytes uint64 // decorator: bytes handed to Transport.Send
	busyNs    int64  // decorator: time inside Transport.Send
}

func (c *ringCluster) bracket() bracket {
	b := bracket{proc: readProc(), reg: c.registrySums()}
	for _, rn := range c.nodes {
		if rn.traced != nil {
			b.wireBytes += rn.traced.bytes.Load()
			b.busyNs += rn.traced.busyNs.Load()
		}
	}
	return b
}

// gauges tracks the maxima of the instantaneous gauges a traced run polls.
type gauges struct {
	mu  sync.Mutex
	max map[string]float64
}

func (g *gauges) observe(name string, v float64) {
	g.mu.Lock()
	if v > g.max[name] {
		g.max[name] = v
	}
	g.mu.Unlock()
}

// pollRing samples queue depths, send backlog and the goroutine count at
// 10 Hz: they have no counters, only instantaneous gauges.
func pollRing(c *ringCluster) (*gauges, *poller) {
	g := &gauges{max: make(map[string]float64)}
	p := startPoller(100*time.Millisecond, func() {
		g.observe("proc.goroutines_max", float64(runtime.NumGoroutine()))
		for _, n := range c.running() {
			reg := n.Metrics()
			for gauge, metric := range map[string]string{
				"udp.rx_queue_depth":       "udp.rx_queue_depth_max",
				"runtime.events_depth":     "runtime.events_depth_max",
				"runtime.deliveries_depth": "runtime.deliveries_depth_max",
			} {
				if v, ok := reg.Get(gauge); ok {
					g.observe(metric, float64(v))
				}
			}
			g.observe("node.backlog_max", float64(n.Backlog()))
		}
	})
	return g, p
}

// ringHealth notes what the ring itself went through during the window —
// registry deltas, free on untraced runs too — and flags a membership
// change or a conviction nobody scheduled.
func ringHealth(out *outcome, b0, b1 bracket, window time.Duration, faultsScheduled bool) {
	d := func(name string) float64 { return b1.reg[name] - b0.reg[name] }
	out.note("ring: %.0f token rotations/s, %.0f token losses, %.0f config changes, %.0f faults raised, %.0f retransmissions",
		d("srp.tokens_received")/clusterNodes/window.Seconds(), d("srp.token_losses"), d("srp.config_changes"),
		d("rrp.faults_raised"), d("srp.retransmissions"))
	if !faultsScheduled && (d("srp.config_changes") > 0 || d("rrp.faults_raised") > 0) {
		out.note("NOTE: the ring reformed or convicted a network although no fault was injected (timer starvation on a loaded host?)")
	}
}

// ringLayers fills the per-layer metrics every live ring run can derive
// from the registry deltas and the transport decorators. ops is the number
// of workload operations in the window and msgs the number of ordered
// messages (they differ on ring-bulk, whose operation is a KiB).
func ringLayers(out *outcome, c *ringCluster, b0, b1 bracket, window time.Duration, ops, msgs float64, g *gauges) {
	d := func(name string) float64 { return b1.reg[name] - b0.reg[name] }
	per := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	secs := window.Seconds()
	tokens := d("srp.tokens_received")
	out.set("srp.token_rotations_per_s", per(tokens, clusterNodes*secs))
	out.set("srp.msgs_per_token_visit", per(msgs, tokens))
	out.set("srp.retransmissions_per_kmsg", per(1000*d("srp.retransmissions"), msgs))
	out.set("srp.token_retransmits", d("srp.token_retransmits"))
	out.set("srp.token_losses", d("srp.token_losses"))
	out.set("srp.config_changes", d("srp.config_changes"))
	out.set("rrp.tokens_gated_share", per(d("rrp.tokens_gated"), tokens))
	out.set("rrp.tokens_timed_out", d("rrp.tokens_timed_out"))
	out.set("rrp.faults_raised", d("rrp.faults_raised"))
	out.set("rrp.readmits", d("rrp.readmits"))
	out.set("wire.msgs_per_packet", per(msgs, d("srp.packets_sent")))
	out.set("wire.bytes_on_wire_per_msg", per(float64(b1.wireBytes-b0.wireBytes), msgs))
	out.set("udp.tx_datagrams_per_msg", per(d("udp.tx_datagrams"), msgs))
	out.set("udp.syscalls_per_msg", per(d("udp.tx_syscalls")+d("udp.rx_syscalls"), msgs))
	flushes := d("udp.flush_control") + d("udp.flush_size") + d("udp.flush_deadline") + d("udp.flush_explicit")
	out.set("udp.flush_deadline_share", per(d("udp.flush_deadline"), flushes))
	out.set("udp.rx_dropped", d("udp.rx_dropped"))
	out.set("udp.tx_errors", d("udp.tx_errors"))
	out.set("udp.send_busy_share", per(float64(b1.busyNs-b0.busyNs), clusterNodes*float64(window)))
	out.set("bulk.chunks_per_s", per(d("srp.bulk_chunks_acked"), secs))
	out.set("bulk.rejected_share", per(d("srp.bulk_rejected"), d("srp.bulk_submitted")))
	out.set("bulk.rx_dropped", d("srp.bulk_rx_dropped"))
	out.set("proc.allocs_per_op", per(float64(b1.proc.mallocs-b0.proc.mallocs), ops))
	out.set("proc.gc_pause_ms_total", float64(b1.proc.gcPause-b0.proc.gcPause)/1e6)
	if g != nil {
		for name, v := range g.max {
			out.set(name, v)
		}
	}
	var sendNs []float64
	for _, rn := range c.nodes {
		if rn.traced != nil {
			sendNs = append(sendNs, rn.traced.samples...)
		}
	}
	out.set("udp.send_ns_p50", median(sendNs))
}

// tailWindow is the width of the windows the p99 is taken over before the
// windows' median is reported: twice a slice, for the sample count a p99
// needs.
const tailWindow = 2 * slice

// setLatency reports the observations' p50 (end to end) and their p90 and
// p99 (per layer: a tail's run-to-run spread is too wide for a bound the
// contract allows, see README.md). On a workload that is steady over its
// window the p50 is the good-side quartile (stats.go) over the window's
// slices of the slice's median, and the tails are the median slice's; on
// logd-mixed-fault, whose window is a sequence of different phases, a
// quantile of the slices would be whichever phase happens to hold it, and
// the percentiles are the whole window's.
func setLatency(out *outcome, obs []timed, steady bool) {
	if steady {
		out.set("latency_p50_us", windowedPercentile(obs, slice.Seconds(), 0.50, goodSide))
		out.set("tail.latency_p90_us", windowedPercentile(obs, slice.Seconds(), 0.90, 0.5))
	} else {
		out.set("latency_p50_us", median(values(obs)))
		out.set("tail.latency_p90_us", percentile(values(obs), 0.90))
	}
	out.set("tail.latency_p99_us", windowedPercentile(obs, tailWindow.Seconds(), 0.99, 0.5))
	out.note("latency: %d samples", len(obs))
}

// latencyMetrics merges the taps' samples that fall inside the window and
// reports them.
func latencyMetrics(out *outcome, c *ringCluster, w0, w1 time.Time) []timed {
	lo, hi := w0.Sub(c.epoch).Seconds(), w1.Sub(c.epoch).Seconds()
	var obs []timed
	for _, rn := range c.nodes {
		for _, chunk := range rn.tap.samples.chunks {
			for _, s := range chunk {
				if s.at >= lo && s.at < hi {
					obs = append(obs, timed{at: s.at - lo, v: s.v})
				}
			}
		}
	}
	setLatency(out, obs, true)
	return obs
}

// sendMark is one traced message at the generator: when Send was called
// and when it returned.
type sendMark struct {
	stream, seq uint32
	start, end  time.Duration
}

// messageSpans joins the generator, tap and reader marks of the traced
// messages into spans and the stage medians the closure check adds up.
func messageSpans(cfg config, out *outcome, c *ringCluster, sends []sendMark, sendNs []float64) {
	tr := cfg.tr
	type key struct{ stream, seq uint32 }
	taps := make([]map[key]time.Duration, len(c.nodes))
	recvs := make([]map[key]time.Duration, len(c.nodes))
	for i, rn := range c.nodes {
		taps[i] = make(map[key]time.Duration, len(rn.tap.marks))
		for _, m := range rn.tap.marks {
			taps[i][key{m.stream, m.seq}] = m.at
		}
		recvs[i] = make(map[key]time.Duration, len(rn.handoffs))
		for _, m := range rn.handoffs {
			recvs[i][key{m.stream, m.seq}] = m.at
		}
	}
	at := func(d time.Duration) time.Time { return c.epoch.Add(d) }
	var order, fanout, handoff, deliver []float64
	for _, s := range sends {
		k := key{s.stream, s.seq}
		sender := int(s.stream) % len(c.nodes)
		own, ok := taps[sender][k]
		if !ok {
			continue
		}
		req := fmt.Sprintf("m%d-%d", s.stream, s.seq)
		last := own
		for i := range c.nodes {
			t, ok := taps[i][k]
			if !ok {
				continue
			}
			last = max(last, t)
			deliver = append(deliver, float64(t-s.start)/1e3)
			if i != sender {
				fanout = append(fanout, float64(t-own)/1e3)
			}
			if r, ok := recvs[i][k]; ok {
				handoff = append(handoff, float64(r-t)/1e3)
				tr.add(req, fmt.Sprintf("node.handoff.n%d", i+1), "msg", at(t), at(r))
			}
		}
		order = append(order, float64(own-s.start)/1e3)
		// The request ends with the last node's tap, or the last reader's
		// receipt where the hand-off was observed too.
		done := last
		for i := range c.nodes {
			if r, ok := recvs[i][k]; ok {
				done = max(done, r)
			}
		}
		// Send hands the message to the protocol goroutine, which can have
		// ordered and delivered it before the generator is back on a CPU to
		// read its clock: node.send overlaps srp.order, it is not inside it.
		tr.add(req, "msg", "", at(s.start), at(max(done, s.end)))
		tr.add(req, "srp.order", "msg", at(s.start), at(own))
		tr.add(req, "node.send", "msg", at(s.start), at(s.end))
		tr.add(req, "ring.fanout", "msg", at(own), at(last))
	}
	out.set("node.send_ns_p50", median(sendNs))
	out.set("srp.order_us_p50", median(order))
	out.set("node.handoff_us_p50", median(handoff))
	// Closure: a delivery is the sender's ordering plus, at the three other
	// nodes, the hop from the sender's tap to theirs.
	if d := median(deliver); d > 0 {
		stages := median(order) + median(fanout)*float64(len(c.nodes)-1)/float64(len(c.nodes))
		out.set("trace.closure_err", math.Abs(stages-d)/d)
		out.note("closure: order p50 %.1f µs + fan-out p50 %.1f µs × 3/4 vs delivery p50 %.1f µs over %d traced messages",
			median(order), median(fanout), d, len(order))
	}
}

// writeTrace stores the run's spans under <dir>/out and reports how many.
func writeTrace(cfg config, out *outcome) error {
	path := filepath.Join(cfg.dir, "out", cfg.workload+".trace.jsonl")
	if err := cfg.tr.write(path); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	out.set("trace.spans", float64(len(cfg.tr.spans)))
	out.note("trace: %d spans in %s", len(cfg.tr.spans), path)
	return nil
}

// seededBody returns n bytes drawn from the run's seed.
func seededBody(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b) //nolint:errcheck // never fails
	return b
}

// ----- ring-small ---------------------------------------------------------

// ringSmall: closed loop, G generators keep every node's send queue full
// of 100 B messages, bare UDP transport.
type ringSmall struct{}

const smallMsgLen = 100

type ringSmallInst struct {
	cfg    config
	traced bool
	c      *ringCluster
	body   []byte
}

func (ringSmall) setUp(cfg config, traced bool) (instance, error) {
	body := seededBody(cfg.seed, smallMsgLen-hdrLen)
	c, err := newRingCluster(ringOptions{style: totem.Passive, traced: traced, body: body})
	if err != nil {
		return nil, err
	}
	return &ringSmallInst{cfg: cfg, traced: traced, c: c, body: body}, nil
}

func (in *ringSmallInst) close() { in.c.Close() }

// saturator is one closed-loop generator: it keeps the send queues of the
// nodes it owns full, retrying on ErrBackpressure.
type saturator struct {
	c      *ringCluster
	owned  []int
	body   []byte
	traced bool

	accepted     []uint64 // per owned node; also the stream's next seq
	attempts     uint64
	backpressure uint64
	sends        []sendMark
	sendNs       []float64
}

func (s *saturator) run(stop <-chan struct{}) {
	msgLen := hdrLen + len(s.body)
	var slab []byte
	for {
		select {
		case <-stop:
			return
		default:
		}
		progressed := false
		for oi, ni := range s.owned {
			node := s.c.nodes[ni].node
			for burst := 0; burst < 64; burst++ {
				// Send owns the payload afterwards, so every message gets
				// fresh bytes, carved from a slab to spare the allocator.
				if len(slab) < msgLen {
					slab = make([]byte, 512*msgLen)
				}
				p := slab[:msgLen:msgLen]
				copy(p[hdrLen:], s.body)
				seq := uint32(s.accepted[oi])
				start := time.Since(s.c.epoch)
				putHeader(p, start, uint32(ni), seq)
				err := node.Send(p)
				s.attempts++
				if err != nil {
					s.backpressure++
					break
				}
				slab = slab[msgLen:]
				s.accepted[oi]++
				progressed = true
				if s.traced {
					end := time.Since(s.c.epoch)
					if seq%traceEveryMsg == 0 {
						s.sends = append(s.sends, sendMark{uint32(ni), seq, start, end})
					}
					if seq%64 == 0 {
						s.sendNs = append(s.sendNs, float64(end-start))
					}
				}
			}
		}
		if !progressed {
			time.Sleep(50 * time.Microsecond)
		}
	}
}

func (in *ringSmallInst) measure(window time.Duration, out *outcome) error {
	c, ph := in.c, phasesFor(in.cfg)
	out.note("ring-small: closed loop, %d generators, %d B messages, passive replication, bare UDP on loopback (no injected delay), wire path %s",
		generators(), smallMsgLen, c.path)
	out.note(tuneEcho)

	G := generators()
	sats := make([]*saturator, G)
	for g := range sats {
		s := &saturator{c: c, body: in.body, traced: in.traced}
		for ni := g; ni < clusterNodes; ni += G {
			s.owned = append(s.owned, ni)
		}
		s.accepted = make([]uint64, len(s.owned))
		sats[g] = s
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, s := range sats {
		wg.Add(1)
		go func(s *saturator) { defer wg.Done(); s.run(stop) }(s)
	}
	var g *gauges
	var poll *poller
	if in.traced {
		g, poll = pollRing(c)
	}

	time.Sleep(ph.warmup)
	b0 := c.bracket()
	sm := startSampler(c.orderedMsgs)
	time.Sleep(window)
	w0, w1 := sm.stop()
	b1 := c.bracket()
	close(stop)
	wg.Wait()
	if poll != nil {
		poll.Stop()
	}

	var accepted uint64
	var attempts, refused uint64
	for _, s := range sats {
		for _, a := range s.accepted {
			accepted += a
		}
		attempts += s.attempts
		refused += s.backpressure
	}
	drainRing(c, accepted, ph.drain)
	c.Close()
	c.noteSplit(out)

	elapsed, msgs := w1.Sub(w0), sm.ops()
	out.attempted += int64(accepted)
	out.failed += int64(c.verifyOrder(out, accepted))
	sm.report(out, smallMsgLen)
	ringHealth(out, b0, b1, elapsed, false)
	latencyMetrics(out, c, w0, w1)

	if in.traced {
		ringLayers(out, c, b0, b1, elapsed, msgs, msgs, g)
		out.set("node.backpressure_share", float64(refused)/float64(max(attempts, 1)))
		var sends []sendMark
		var sendNs []float64
		for _, s := range sats {
			sends = append(sends, s.sends...)
			sendNs = append(sendNs, s.sendNs...)
		}
		messageSpans(in.cfg, out, c, sends, sendNs)
		wireMicro(out, smallMsgLen, false)
	}
	return nil
}

// drainRing waits until every node's tap has seen want messages, or the
// drain budget runs out.
func drainRing(c *ringCluster, want uint64, budget time.Duration) {
	deadline := time.Now().Add(budget)
	for {
		missing := false
		for _, rn := range c.nodes {
			if rn.tap.count.Load() < want {
				missing = true
			}
		}
		if !missing || time.Now().After(deadline) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}
