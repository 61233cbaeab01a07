package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	totem "github.com/totem-rrp/totem"
)

// pacer is the open-loop generator: every tick it offers perTick new
// messages round-robin over its target nodes, each stamped with the tick's
// due time. A message refused with ErrBackpressure keeps its due time and
// is offered again next tick, so a stall shows as latency, not as a
// failure. One goroutine runs it.
type pacer struct {
	c       *ringCluster
	targets []int // node indexes, used round-robin
	tick    time.Duration
	perTick int
	body    []byte
	traced  bool

	accepted [clusterNodes]uint64 // per node; also the stream's next seq
	offered  uint64               // messages that came due
	attempts uint64
	refused  uint64
	pending  []time.Duration // due times of refused messages, oldest first
	next     int             // round-robin cursor
	lateUs   []float64       // how late each tick ran
	sends    []sendMark
	sendNs   []float64
}

// offer tries to hand one message due at `due` to the next target node.
func (p *pacer) offer(due time.Duration) bool {
	ni := p.targets[p.next%len(p.targets)]
	p.next++
	msg := make([]byte, hdrLen+len(p.body))
	copy(msg[hdrLen:], p.body)
	seq := uint32(p.accepted[ni])
	putHeader(msg, due, uint32(ni), seq)
	start := time.Since(p.c.epoch)
	err := p.c.nodes[ni].node.Send(msg)
	p.attempts++
	if err != nil {
		if errors.Is(err, totem.ErrBackpressure) {
			p.refused++
		}
		return false
	}
	p.accepted[ni]++
	if p.traced {
		end := time.Since(p.c.epoch)
		if seq%traceEveryMsg == 0 {
			p.sends = append(p.sends, sendMark{uint32(ni), seq, start, end})
		}
		if seq%16 == 0 {
			p.sendNs = append(p.sendNs, float64(end-start))
		}
	}
	return true
}

// retry offers the refused messages again, oldest first, stopping at the
// first that is refused again.
func (p *pacer) retry() {
	for len(p.pending) > 0 && p.offer(p.pending[0]) {
		p.pending = p.pending[1:]
	}
}

// preciseTicks delivers tick numbers 0, 1, 2… on the returned channel, tick
// k at start+k×every, until stop closes. Go's own timers wake a sleeping
// goroutine through epoll_wait, whose timeout has millisecond granularity:
// a 500 µs time.Sleep returns 0–1 ms late, and the generator's lateness is
// charged to the system under test. A goroutine locked to its own thread
// and sleeping in clock_nanosleep wakes within tens of µs; it only sleeps
// and signals, so the pacer proper stays an ordinary goroutine. A tick the
// receiver is too slow to take is not queued: the pacer catches up by the
// tick number.
func preciseTicks(start time.Time, every time.Duration, stop <-chan struct{}) <-chan int {
	ticks := make(chan int, 1)
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		defer close(ticks)
		for k := 0; ; k++ {
			if d := time.Until(start.Add(time.Duration(k) * every)); d > 0 {
				ts := syscall.NsecToTimespec(int64(d))
				syscall.Nanosleep(&ts, nil) //nolint:errcheck // an early wake-up only makes the tick early
			}
			select {
			case <-stop:
				return
			default:
			}
			select {
			case ticks <- k:
			default:
			}
		}
	}()
	return ticks
}

// run paces until stop closes, then keeps retrying what is still pending
// for at most grace.
func (p *pacer) run(stop <-chan struct{}, grace time.Duration) {
	start := time.Now()
	next := 0 // first tick not yet offered
	for k := range preciseTicks(start, p.tick, stop) {
		p.lateUs = append(p.lateUs, float64(time.Since(start.Add(time.Duration(k)*p.tick)))/1e3)
		p.retry()
		// Offer every tick up to k: a tick the pacer slept through is
		// still due, at its own time.
		for ; next <= k; next++ {
			dueAt := start.Add(time.Duration(next) * p.tick).Sub(p.c.epoch)
			for i := 0; i < p.perTick; i++ {
				p.offered++
				if len(p.pending) > 0 || !p.offer(dueAt) {
					p.pending = append(p.pending, dueAt)
				}
			}
		}
	}
	deadline := time.Now().Add(grace)
	for len(p.pending) > 0 && time.Now().Before(deadline) {
		p.retry()
		time.Sleep(p.tick)
	}
}

// newPacer returns a pacer offering perTick messages every tick,
// round-robin over targets.
func newPacer(c *ringCluster, targets []int, tick time.Duration, perTick int, body []byte, traced bool) *pacer {
	return &pacer{c: c, targets: targets, tick: tick, perTick: perTick, body: body, traced: traced}
}

// acceptedTotal is how many messages the nodes took; read it, like the
// pacer's plain fields, once run has returned.
func (p *pacer) acceptedTotal() (n uint64) {
	for _, a := range p.accepted {
		n += a
	}
	return n
}

// cut is one scheduled outage of network 0.
type cut struct {
	start, revive time.Time
}

// pacedCuts is how many times a window cuts network 0.
const pacedCuts = 3

// cutLength: a twelfth of the window, at least 250 ms, at most the issue's 3 s.
func cutLength(window time.Duration) time.Duration {
	return min(max(window/12, 250*time.Millisecond), 3*time.Second)
}

// runCuts cuts network 0 n times during the window that starts at w0: the
// window is divided into n equal parts, and each part's cut starts a fifth
// of the way into it and lasts cutLength, which leaves more than half the
// part for the readmission. A cut starts only once every node has reported
// the network readmitted after the one before; if that has not happened
// when the part is half over, the part goes without its cut.
func runCuts(c *ringCluster, w0 time.Time, window time.Duration, n int) (cuts []cut, skipped int) {
	part := window / time.Duration(n)
	for k := 0; k < n; k++ {
		p0 := w0.Add(time.Duration(k) * part)
		time.Sleep(time.Until(p0.Add(part / 5)))
		for len(cuts) > 0 && !c.watch.readmittedSince(cuts[len(cuts)-1].revive) && time.Now().Before(p0.Add(part/2)) {
			time.Sleep(5 * time.Millisecond)
		}
		if len(cuts) > 0 && !c.watch.readmittedSince(cuts[len(cuts)-1].revive) {
			skipped++
			continue
		}
		ct := cut{start: time.Now()}
		c.netem.KillNetwork(0)
		time.Sleep(cutLength(window))
		ct.revive = time.Now()
		c.netem.ReviveNetwork(0)
		cuts = append(cuts, ct)
	}
	return cuts, skipped
}

// readmittedSince reports whether every node has reported network 0
// cleared after t.
func (w *ringWatch) readmittedSince(t time.Time) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	var cleared [clusterNodes]bool
	n := 0
	for _, e := range w.events {
		if e.cleared && e.network == 0 && e.at.After(t) && !cleared[e.node] {
			cleared[e.node] = true
			n++
		}
	}
	return n == clusterNodes
}

// ----- ring-paced-fault ---------------------------------------------------

// ringPacedFault: open loop, one pacer offers 20 000 × 1000 B msgs/s — a
// small fraction of saturation — while network 0 is cut pacedCuts times.
type ringPacedFault struct{}

const (
	pacedMsgLen  = 1000
	pacedTick    = 500 * time.Microsecond
	pacedPerTick = 10 // 20 000 msgs/s
	// pacedLimit is the latency limit of this workload's throughput: an open
	// loop orders what it is offered, so messages per second would read the
	// offered 20 000 whatever the program did. What is reported instead is
	// the messages ordered within pacedLimit of their due time, per second —
	// ten times the healthy p99, so only an interruption misses it; the
	// messages that came due while the ring stalled on the cut do.
	pacedLimit = 10 * time.Millisecond
)

type ringPacedInst struct {
	cfg    config
	traced bool
	c      *ringCluster
	body   []byte
}

func (ringPacedFault) setUp(cfg config, traced bool) (instance, error) {
	body := seededBody(cfg.seed, pacedMsgLen-hdrLen)
	c, err := newRingCluster(ringOptions{
		style: totem.Passive, impair: true, seed: cfg.seed, traced: traced, body: body, tapEvery: 1,
	})
	if err != nil {
		return nil, err
	}
	return &ringPacedInst{cfg: cfg, traced: traced, c: c, body: body}, nil
}

func (in *ringPacedInst) close() { in.c.Close() }

func (in *ringPacedInst) measure(window time.Duration, out *outcome) error {
	c, ph := in.c, phasesFor(in.cfg)
	nCuts := pacedCuts
	if in.cfg.quick {
		nCuts = 1
	}
	out.note("ring-paced-fault: open loop, %d × %d B msgs/s in %v ticks round-robin over %d nodes, passive replication, UDP on loopback under live.Impair (no injected delay or loss), wire path %s; network 0 cut %d times for %v",
		int(float64(pacedPerTick)/pacedTick.Seconds()), pacedMsgLen, pacedTick, clusterNodes, c.path, nCuts, cutLength(window))
	out.note(tuneEcho)

	targets := make([]int, len(c.nodes))
	for i := range targets {
		targets[i] = i
	}
	p := newPacer(c, targets, pacedTick, pacedPerTick, in.body, in.traced)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); p.run(stop, ph.drain) }()
	var g *gauges
	var poll *poller
	if in.traced {
		g, poll = pollRing(c)
	}

	time.Sleep(ph.warmup)
	b0 := c.bracket()
	sm := startSampler(c.orderedMsgs)
	cuts, skipped := runCuts(c, sm.start, window, nCuts)
	time.Sleep(time.Until(sm.start.Add(window)))
	w0, w1 := sm.stop()
	b1 := c.bracket()
	close(stop)
	wg.Wait()
	if poll != nil {
		poll.Stop()
	}

	accepted := p.acceptedTotal()
	drainRing(c, accepted, ph.drain)
	c.Close()
	c.noteSplit(out)

	elapsed, msgs := w1.Sub(w0), sm.ops()
	out.attempted += int64(p.offered)
	out.failed += int64(len(p.pending)) + int64(c.verifyOrder(out, accepted))
	sm.report(out, 0) // the rate is replaced below by the messages ordered in time
	ringHealth(out, b0, b1, elapsed, true)
	obs := latencyMetrics(out, c, w0, w1)
	inTime := 0
	for _, o := range obs { // tapEvery is 1: every delivery at every node is in obs
		if o.v <= float64(pacedLimit)/1e3 {
			inTime++
		}
	}
	rate := float64(inTime) / clusterNodes / elapsed.Seconds()
	out.set("ops_per_s", rate)
	out.note("ordered %.0f msgs/s, %.0f of them within %v of their due time: %.6g MB/s", msgs/elapsed.Seconds(), rate, pacedLimit, rate*pacedMsgLen/1e6)
	late, _ := tailPercentile(p.lateUs)
	out.set("gen.late_us_p99", late)
	out.note("pacer lateness µs: p50 %.0f p90 %.0f p99 %.0f max %.0f", percentile(p.lateUs, .5), percentile(p.lateUs, .9), percentile(p.lateUs, .99), percentile(p.lateUs, 1))

	// The service interruption a user sees: the worst due-time latency of
	// any message delivered while the network was down. Conviction: the cut
	// to the first node's fault report. Readmission: the revive to the last
	// node's all-clear. Each is the median over the window's cuts.
	// A report against network 1, which nothing ever cuts, is a false alarm
	// of the fault monitor: what the ring delivered is as correct as before,
	// so it is counted — one failed operation per report — and not a
	// violation of the outputs.
	events := c.watch.faultEvents()
	falseAlarms := 0
	for _, e := range events {
		if e.network != 0 && !e.cleared {
			falseAlarms++
		}
	}
	if falseAlarms > 0 {
		out.attempted += int64(falseAlarms)
		out.failed += int64(falseAlarms)
		out.note("NOTE: the healthy network 1 was reported faulty %d times (reports of the %d nodes); counted as failed", falseAlarms, clusterNodes)
	}
	var worsts, convicts, readmits []float64
	for k, ct := range cuts {
		lo, hi := ct.start.Sub(w0).Seconds(), ct.revive.Sub(w0).Seconds()
		worst := 0.0
		for _, o := range obs {
			if o.at >= lo && o.at < hi {
				worst = max(worst, o.v)
			}
		}
		worsts = append(worsts, worst/1e3)
		// The readmission belongs to this cut if it comes before the next.
		next := w1
		if k+1 < len(cuts) {
			next = cuts[k+1].start
		}
		var convicted, readmitted time.Time
		for _, e := range events {
			switch {
			case !e.cleared && e.at.After(ct.start) && e.at.Before(ct.revive) && (convicted.IsZero() || e.at.Before(convicted)):
				convicted = e.at
			case e.cleared && e.at.After(ct.revive) && e.at.Before(next) && e.at.After(readmitted):
				readmitted = e.at
			}
		}
		line := fmt.Sprintf("cut %d at %.2f s for %v: worst latency %.1f ms", k+1, lo, ct.revive.Sub(ct.start).Round(time.Millisecond), worst/1e3)
		if !convicted.IsZero() {
			convicts = append(convicts, float64(convicted.Sub(ct.start))/1e6)
			line += fmt.Sprintf(", convicted after %.1f ms", convicts[len(convicts)-1])
		}
		if !readmitted.IsZero() {
			readmits = append(readmits, float64(readmitted.Sub(ct.revive))/1e6)
			line += fmt.Sprintf(", readmitted %.1f ms after the revive", readmits[len(readmits)-1])
		}
		out.note("%s", line)
	}
	if skipped > 0 {
		out.note("NOTE: %d of the %d cuts were not made: the nodes had not all readmitted network 0 after the cut before", skipped, nCuts)
	}
	out.set("fault.worst_latency_ms", median(worsts))
	out.set("rrp.convict_ms", median(convicts))
	out.set("rrp.readmit_ms", median(readmits))
	out.note("pacer refused %d of %d offers", p.refused, p.attempts)

	if in.traced {
		ringLayers(out, c, b0, b1, elapsed, msgs, msgs, g)
		out.set("node.backpressure_share", float64(p.refused)/float64(max(p.attempts, 1)))
		messageSpans(in.cfg, out, c, p.sends, p.sendNs)
		wireMicro(out, pacedMsgLen, false)
	}
	return nil
}
