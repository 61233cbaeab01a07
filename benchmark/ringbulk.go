package main

import (
	"encoding/binary"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"

	totem "github.com/totem-rrp/totem"
)

// ringBulk: one generator streams back-to-back 4 MiB SendBulk transfers
// from node 1 while a pacer sends 64 B probes from node 3 at 2000/s (open
// loop, timed from due time). The probes price what the stream costs
// interactive traffic.
type ringBulk struct{}

const (
	bulkTransferLen = 4 << 20
	bulkSender      = 0 // node 1
	probeSender     = 2 // node 3
	probeMsgLen     = 64
	probeTick       = 500 * time.Microsecond // × 1 per tick = 2000/s
)

// bulkWorkers is Options.Bulk.Workers for this workload. With the default
// of two, the workers race their chunks into the protocol loop; when chunk
// 1 of a transfer is ordered before chunk 0 every receiver — the sender's
// own included — takes it for a transfer it joined midway and skips it
// whole, while the sender sees every chunk acknowledged and reports
// success. On the reference host that lost one transfer in roughly every
// third 10 s run (bulk.rx_dropped counts the chunks). One worker submits in
// order. Recorded here, not fixed: the benchmark changes nothing outside
// its directory.
const bulkWorkers = 1

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

type ringBulkInst struct {
	cfg    config
	traced bool
	c      *ringCluster
	probe  []byte
	block  []byte // the transfer payload; its first 8 bytes carry the transfer's index
	sum    uint32 // CRC-32C of block[8:]

	bulkSeen [clusterNodes]atomic.Uint64 // completed transfers delivered, per node
	bulkBad  atomic.Uint64               // transfers whose bytes did not verify
}

func (ringBulk) setUp(cfg config, traced bool) (instance, error) {
	in := &ringBulkInst{
		cfg: cfg, traced: traced,
		probe: seededBody(cfg.seed, probeMsgLen-hdrLen),
		block: seededBody(cfg.seed+1, bulkTransferLen),
	}
	in.sum = crc32.Checksum(in.block[8:], castagnoli)
	c, err := newRingCluster(ringOptions{
		style: totem.Passive, traced: traced, body: in.probe, tapEvery: 1,
		// One submit worker, not the default two: see bulkWorkers.
		bulkWorkers: bulkWorkers,
		// A completed transfer's bytes are verified by the Deliveries()
		// reader, off the protocol goroutine.
		onRecv: func(node int, d totem.Delivery) {
			if !d.Bulk {
				return
			}
			if len(d.Payload) != bulkTransferLen || crc32.Checksum(d.Payload[8:], castagnoli) != in.sum {
				in.bulkBad.Add(1)
			}
			in.bulkSeen[node].Add(1)
		},
	})
	if err != nil {
		return nil, err
	}
	in.c = c
	return in, nil
}

func (in *ringBulkInst) close() { in.c.Close() }

// streamer sends transfers back to back until stopped.
type streamer struct {
	node  *totem.Node
	block []byte

	mu      sync.Mutex
	done    uint64              // bytes of completed transfers
	current *totem.BulkTransfer // the transfer in flight

	started   int
	failed    int
	durations []float64 // seconds per completed transfer
}

// acked returns the bytes every member has ordered so far.
func (s *streamer) acked() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.done
	if s.current != nil {
		a, _ := s.current.Progress()
		n += uint64(a)
	}
	return n
}

func (s *streamer) run(stop <-chan struct{}) {
	for i := uint64(0); ; i++ {
		select {
		case <-stop:
			return
		default:
		}
		// The node owns the payload until Done; between transfers it is
		// ours again, so the index can be rewritten in place.
		binary.BigEndian.PutUint64(s.block[:8], i)
		start := time.Now()
		t, err := s.node.SendBulk(s.block)
		s.started++
		if err != nil {
			s.failed++
			return
		}
		s.mu.Lock()
		s.current = t
		s.mu.Unlock()
		<-t.Done()
		s.mu.Lock()
		s.current = nil
		if t.Err() == nil {
			s.done += uint64(len(s.block))
		}
		s.mu.Unlock()
		if t.Err() != nil {
			s.failed++
			continue
		}
		s.durations = append(s.durations, time.Since(start).Seconds())
	}
}

func (in *ringBulkInst) measure(window time.Duration, out *outcome) error {
	c, ph := in.c, phasesFor(in.cfg)
	out.note("ring-bulk: one generator streams back-to-back %d MiB SendBulk transfers from node %d; open-loop %d B probes from node %d at %d/s; passive replication, bare UDP on loopback (no injected delay), wire path %s",
		bulkTransferLen>>20, bulkSender+1, probeMsgLen, probeSender+1, int(1/probeTick.Seconds()), c.path)
	out.note(tuneEcho)

	st := &streamer{node: c.nodes[bulkSender].node, block: in.block}
	p := newPacer(c, []int{probeSender}, probeTick, 1, in.probe, in.traced)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); st.run(stop) }()
	wg.Add(1)
	go func() { defer wg.Done(); p.run(stop, ph.drain) }()
	var g *gauges
	var poll *poller
	if in.traced {
		g, poll = pollRing(c)
	}

	time.Sleep(ph.warmup)
	b0 := c.bracket()
	sm := startSampler(func() float64 { return float64(st.acked()) / 1024 })
	time.Sleep(window)
	w0, w1 := sm.stop()
	b1 := c.bracket()
	close(stop)
	wg.Wait()
	if poll != nil {
		poll.Stop()
	}

	probes := p.acceptedTotal()
	drainRing(c, probes, ph.drain)
	transfers := uint64(st.started - st.failed)
	deadline := time.Now().Add(ph.drain)
	for time.Now().Before(deadline) {
		short := false
		for i := range in.bulkSeen {
			if in.bulkSeen[i].Load() < transfers {
				short = true
			}
		}
		if !short {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.Close()
	c.noteSplit(out)

	elapsed := w1.Sub(w0)
	out.attempted += int64(p.offered) + int64(st.started)
	out.failed += int64(len(p.pending)) + int64(c.verifyOrder(out, probes)) + int64(st.failed)
	// A transfer the sender saw acknowledged and some node never delivered
	// is lost like a message is: counted. One delivered too often is wrong.
	var short uint64
	for i := range in.bulkSeen {
		switch got := in.bulkSeen[i].Load(); {
		case got > transfers:
			out.violate("node %d received %d completed transfers, only %d were sent", i+1, got, transfers)
		case got < transfers:
			short = max(short, transfers-got)
			out.note("NOTE: node %d received %d of the %d transfers the sender saw acknowledged", i+1, got, transfers)
		}
	}
	out.failed += int64(short)
	if n := in.bulkBad.Load(); n > 0 {
		out.violate("%d delivered transfers had the wrong length or checksum", n)
	}
	kib := sm.ops()
	sm.report(out, 1024)
	ringHealth(out, b0, b1, elapsed, false)
	latencyMetrics(out, c, w0, w1)
	late, _ := tailPercentile(p.lateUs)
	out.set("gen.late_us_p99", late)
	out.note("bulk: %d transfers completed, %d failed", transfers, st.failed)

	if in.traced {
		msgs := (b1.reg["srp.msgs_delivered"] - b0.reg["srp.msgs_delivered"]) / clusterNodes
		ringLayers(out, c, b0, b1, elapsed, kib, msgs, g)
		out.set("node.backpressure_share", float64(p.refused)/float64(max(p.attempts, 1)))
		out.set("bulk.transfer_s_p50", median(st.durations))
		messageSpans(in.cfg, out, c, p.sends, p.sendNs)
		wireMicro(out, 8192, true)
	}
	return nil
}
