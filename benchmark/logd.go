package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	totem "github.com/totem-rrp/totem"
	"github.com/totem-rrp/totem/internal/logd"
	"github.com/totem-rrp/totem/logdclient"
)

// The logd workloads run the service as shipped, not as tortured: UDP (not
// the mem hub), cmd/totemlogd's store defaults (4 MiB segments, a snapshot
// every 4096 records), and the per-client rate limit off — with the default
// 500 appends/s bucket a closed-loop writer measures the bucket, not the
// service. ColdStartTimeout is the one deployment setting shortened: a
// fresh cluster has no live peer, so every member waits it out before
// aligning, and the shipped 10 s would be most of a run. It is pure waiting:
// nothing the benchmark measures happens in it.
var (
	logdStoreOptions  = logd.StoreOptions{}
	logdServerOptions = logd.ServerOptions{
		Admission:        logd.AdmissionOptions{RatePerSec: -1},
		ColdStartTimeout: 250 * time.Millisecond,
	}
)

// logdTapMark is one envelope seen by one member's DeliveryTap.
type logdTapMark struct {
	client string
	seq    uint64
	at     time.Time
}

// logdMember is one member's service stack on top of its ring node.
type logdMember struct {
	dir     string
	addr    string       // stable host:port of the HTTP front door
	ln      net.Listener // addr's listener, bound at set-up for the member's first start
	store   *logd.Store
	srv     *logd.Server
	hs      *http.Server
	handler *tracedHandler // nil on untraced runs
	marks   []logdTapMark  // tap goroutine only; read after close
}

// logdCluster is a 4-member logd built from the exported constructors.
type logdCluster struct {
	cfg     config
	traced  bool
	dir     string
	ring    *ringCluster
	members []*logdMember
}

var logdSetUps atomic.Int64

// newLogdCluster forms the ring first and starts the servers only once
// every node lists every member, so the members' sync markers are all
// ordered in the one full configuration (a member that orders its marker in
// a singleton ring forks the log at offset 0 — ROADMAP item 1; the
// benchmark keeps out of that hole rather than retrying through it). It
// returns when every member is Live() and has acknowledged one append.
func newLogdCluster(cfg config, traced bool) (*logdCluster, error) {
	lc := &logdCluster{
		cfg: cfg, traced: traced,
		dir: filepath.Join(cfg.dir, "data", fmt.Sprintf("%s-%d-%d", cfg.workload, os.Getpid(), logdSetUps.Add(1))),
	}
	if err := os.RemoveAll(lc.dir); err != nil {
		return nil, err
	}
	for i := 0; i < clusterNodes; i++ {
		m := &logdMember{dir: filepath.Join(lc.dir, fmt.Sprintf("node-%d", i+1))}
		// Bind the front door now so every member can be told its peers'
		// addresses before any of them starts, and keep it bound: a port
		// given back in between can be taken as the source port of one of
		// the cluster's own connections.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			lc.Close()
			return nil, err
		}
		m.addr, m.ln = ln.Addr().String(), ln
		lc.members = append(lc.members, m)
	}
	opt := ringOptions{style: totem.Passive, traced: traced, noReader: true}
	if traced {
		opt.tapFor = func(i int) func(totem.Delivery) {
			m := lc.members[i]
			return func(d totem.Delivery) {
				if _, client, seq, _, err := logd.DecodeEnvelope(d.Payload); err == nil {
					m.marks = append(m.marks, logdTapMark{client, seq, time.Now()})
				}
			}
		}
	}
	ring, err := newRingCluster(opt)
	if err != nil {
		lc.Close()
		return nil, err
	}
	lc.ring = ring
	for i, m := range lc.members {
		store, err := logd.OpenStore(m.dir, logdStoreOptions)
		if err == nil {
			err = lc.startMember(i, store)
		}
		if err != nil {
			lc.Close()
			return nil, fmt.Errorf("member %d: %w", i+1, err)
		}
	}
	if err := lc.waitLive(30 * time.Second); err != nil {
		lc.Close()
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for i := range lc.members {
		cl, err := logdclient.New(logdclient.Options{Endpoints: []string{lc.endpoint(i)}, ID: fmt.Sprintf("setup-%d", i+1)})
		if err == nil {
			_, err = cl.Append(ctx, []byte("ready"))
		}
		if err != nil {
			lc.Close()
			return nil, fmt.Errorf("member %d's first append: %w", i+1, err)
		}
	}
	return lc, nil
}

func (lc *logdCluster) endpoint(i int) string { return "http://" + lc.members[i].addr }

// endpointsFrom lists every front door, starting at member i.
func (lc *logdCluster) endpointsFrom(i int) []string {
	var out []string
	for k := range lc.members {
		out = append(out, lc.endpoint((i+k)%len(lc.members)))
	}
	return out
}

// startMember starts member i's server and front door on its (already
// open) store and the ring node already running in slot i. It owns the
// store from here on.
func (lc *logdCluster) startMember(i int, store *logd.Store) error {
	m := lc.members[i]
	sopt := logdServerOptions
	sopt.NodeID = fmt.Sprintf("node-%d", i+1)
	for k := range lc.members {
		if k != i {
			sopt.Peers = append(sopt.Peers, lc.endpoint(k))
		}
	}
	srv, err := logd.NewServer(lc.ring.nodes[i].node, store, sopt)
	if err != nil {
		store.Close()
		return err
	}
	ln := m.ln
	m.ln = nil
	for attempt := 0; ln == nil; attempt++ {
		// A restarted member re-binds its old port; give the kernel a beat
		// to release it.
		if ln, err = net.Listen("tcp", m.addr); err == nil {
			break
		}
		if attempt > 100 {
			srv.Close()
			store.Close()
			return fmt.Errorf("binding %s: %w", m.addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	handler := srv.Handler()
	if lc.traced {
		if m.handler == nil {
			m.handler = &tracedHandler{}
		}
		m.handler.inner = handler
		handler = m.handler
	}
	hs := &http.Server{Handler: handler}
	go hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on shutdown
	m.store, m.srv, m.hs = store, srv, hs
	return nil
}

// waitLive blocks until every running member's server is live.
func (lc *logdCluster) waitLive(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		ready, up := 0, 0
		for _, m := range lc.members {
			if m.srv == nil {
				continue
			}
			up++
			if m.srv.Live() {
				ready++
			}
		}
		if ready == up {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("logd not live after %s: %d/%d members", timeout, ready, up)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill fail-stops member i, kill -9 style: the front door drops, the ring
// node dies without a goodbye, and the store is abandoned with no final
// snapshot or sync — its unsynced tail is discarded.
func (lc *logdCluster) kill(i int) {
	m := lc.members[i]
	m.hs.Close()
	m.srv.Close()
	lc.ring.kill(i)
	m.store.Kill()
	m.store, m.srv, m.hs = nil, nil, nil
}

// restart reboots member i from its on-disk state; the epoch the store
// persisted is carried into the new ring node.
func (lc *logdCluster) restart(i int) error {
	store, err := logd.OpenStore(lc.members[i].dir, logdStoreOptions)
	if err != nil {
		return err
	}
	if err := lc.ring.restart(i, store.Epoch()); err != nil {
		store.Close()
		return err
	}
	return lc.startMember(i, store)
}

// Close stops everything and removes the store directories.
func (lc *logdCluster) Close() {
	for _, m := range lc.members {
		if m.ln != nil { // never started
			m.ln.Close()
		}
		if m.hs != nil {
			m.hs.Close()
		}
		if m.srv != nil {
			m.srv.Close()
		}
	}
	if lc.ring != nil {
		lc.ring.Close()
	}
	for _, m := range lc.members {
		if m.store != nil {
			m.store.Close()
		}
		m.store, m.srv, m.hs = nil, nil, nil
	}
	os.RemoveAll(lc.dir)
}

// ack is one acknowledged append as its writer saw it. n is the writer's
// own count of Append calls, which the record's bytes carry; seq is the
// identity logdclient gave it (a failed append burns a seq, so the two can
// drift apart).
type ack struct {
	n, seq, offset uint64
	start, end     time.Time
}

// writer is one closed-loop logdclient writer on one keep-alive connection.
type writer struct {
	id     string
	idx    int
	body   []byte
	client *logdclient.Client

	acks   []ack
	failed int
	tried  int
	acked  *atomic.Uint64 // shared by the workload's writers: acks so far
	// calling is held around every Append call; whoever else holds it has
	// the writer parked between two appends.
	calling sync.Mutex
}

func newWriter(lc *logdCluster, idx int, seed int64, recordLen int, ctr *rtCounters) (*writer, error) {
	w := &writer{
		id:    fmt.Sprintf("w%d-%d", idx, seed),
		idx:   idx,
		body:  seededBody(seed+int64(idx), recordLen-hdrLen),
		acked: &ctr.acked,
	}
	cl, err := logdclient.New(logdclient.Options{
		// Homed on different members; the others are the failover order.
		Endpoints: lc.endpointsFrom(idx % clusterNodes),
		ID:        w.id,
		HTTP: &http.Client{
			Timeout: 15 * time.Second,
			Transport: &countingRoundTripper{
				inner: &http.Transport{MaxIdleConnsPerHost: 1, IdleConnTimeout: time.Minute},
				ctr:   ctr,
			},
		},
	})
	w.client = cl
	return w, err
}

// payload regenerates the record the writer sent on its n-th Append call.
func (w *writer) payload(n uint64) []byte {
	p := make([]byte, hdrLen+len(w.body))
	binary.BigEndian.PutUint64(p[0:8], uint64(w.idx))
	binary.BigEndian.PutUint64(p[8:16], n)
	copy(p[hdrLen:], w.body)
	return p
}

func (w *writer) run(stop <-chan struct{}) {
	ctx := context.Background()
	for n := uint64(1); ; n++ {
		select {
		case <-stop:
			return
		default:
		}
		w.tried++
		w.calling.Lock()
		start := time.Now()
		off, err := w.client.Append(ctx, w.payload(n))
		end := time.Now()
		w.calling.Unlock()
		if err != nil {
			w.failed++
			continue
		}
		seq, _ := w.client.LastAcked()
		w.acks = append(w.acks, ack{n, seq, off, start, end})
		w.acked.Add(1)
	}
}

// fetchLog reads member i's whole log through /v1/read.
func (lc *logdCluster) fetchLog(ctx context.Context, i int) ([]logd.WireRecord, error) {
	rd, err := logdclient.New(logdclient.Options{Endpoints: []string{lc.endpoint(i)}, ID: "bench-reader", MaxAttempts: 2})
	if err != nil {
		return nil, err
	}
	var log []logd.WireRecord
	for {
		recs, next, err := rd.Read(ctx, uint64(len(log)), 512)
		if err != nil {
			return nil, fmt.Errorf("reading member %d's log at %d: %w", i+1, len(log), err)
		}
		log = append(log, recs...)
		if uint64(len(log)) >= next || len(recs) == 0 {
			return log, nil
		}
	}
}

// verifyLogs is the logtest conformance suite (which needs a *testing.T, so
// it cannot be called from here) plus ROADMAP item 1's invariant: per-client
// ack offsets and seqs strictly increase, no offset is acked twice, every
// member's log is dense with no identity stored twice, every ack is stored
// at its offset with its exact bytes, and every member holds the identical
// record at every offset.
func (lc *logdCluster) verifyLogs(out *outcome, writers []*writer, logs [][]logd.WireRecord) {
	byOffset := make(map[uint64]string)
	for _, w := range writers {
		var prev ack
		for k, a := range w.acks {
			if k > 0 && (a.offset <= prev.offset || a.seq <= prev.seq) {
				out.violate("writer %s: ack %d/%d follows %d/%d — not monotonic", w.id, a.seq, a.offset, prev.seq, prev.offset)
				break
			}
			prev = a
			if other, dup := byOffset[a.offset]; dup {
				out.violate("offset %d acked to both %s and %s", a.offset, other, w.id)
			}
			byOffset[a.offset] = w.id
		}
	}
	type ident struct {
		client string
		seq    uint64
	}
	for i, log := range logs {
		seen := make(map[ident]uint64, len(log))
		for pos, rec := range log {
			if rec.Offset != uint64(pos) {
				out.violate("member %d's log is not dense: position %d holds offset %d", i+1, pos, rec.Offset)
				break
			}
			id := ident{rec.Client, rec.Seq}
			if at, dup := seen[id]; dup {
				out.violate("member %d stored %s/%d twice, at offsets %d and %d", i+1, rec.Client, rec.Seq, at, rec.Offset)
			}
			seen[id] = rec.Offset
		}
	}
	ref := logs[0]
	for _, w := range writers {
		for _, a := range w.acks {
			if a.offset >= uint64(len(ref)) {
				out.violate("writer %s: acked offset %d beyond the stored log (%d records)", w.id, a.offset, len(ref))
				break
			}
			rec := ref[a.offset]
			if rec.Client != w.id || rec.Seq != a.seq || !bytes.Equal(rec.Payload, w.payload(a.n)) {
				out.violate("offset %d: acked %s/%d, stored %s/%d or different bytes", a.offset, w.id, a.seq, rec.Client, rec.Seq)
				break
			}
		}
	}
	for i, log := range logs[1:] {
		if len(log) != len(ref) {
			out.violate("member %d holds %d records, member 1 holds %d", i+2, len(log), len(ref))
		}
		for pos := 0; pos < min(len(log), len(ref)); pos++ {
			a, b := ref[pos], log[pos]
			if a.Client != b.Client || a.Seq != b.Seq || a.Kind != b.Kind || !bytes.Equal(a.Payload, b.Payload) {
				out.violate("offset %d: member %d holds %q/%d, member 1 holds %q/%d — the replicas forked", pos, i+2, b.Client, b.Seq, a.Client, a.Seq)
				break
			}
		}
	}
}

// waitConverged blocks until every member's store has the same tail.
func (lc *logdCluster) waitConverged(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		same := true
		for _, m := range lc.members {
			if m.store == nil || !m.srv.Live() || m.store.Next() != lc.members[1].store.Next() {
				same = false
			}
		}
		if same || time.Now().After(deadline) {
			return same
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// appendObs turns the acks inside [w0, w1) into timed latency observations
// (µs, stamped with their completion time).
func appendObs(writers []*writer, w0, w1 time.Time) []timed {
	var obs []timed
	for _, w := range writers {
		for _, a := range w.acks {
			if !a.end.Before(w0) && a.end.Before(w1) {
				obs = append(obs, timed{at: a.end.Sub(w0).Seconds(), v: float64(a.end.Sub(a.start)) / 1e3})
			}
		}
	}
	return obs
}

// logdLayers fills the per-layer metrics of a traced logd run: the span
// joins, the ring's registry deltas and the isolated replays.
func (lc *logdCluster) logdLayers(out *outcome, writers []*writer, ctr *rtCounters, b0, b1 bracket,
	w0, w1 time.Time, recordLen int) error {
	elapsed := w1.Sub(w0)
	obs := appendObs(writers, w0, w1)
	appends := float64(len(obs))
	msgs := (b1.reg["srp.msgs_delivered"] - b0.reg["srp.msgs_delivered"]) / clusterNodes
	ringLayers(out, lc.ring, b0, b1, elapsed, appends, msgs, nil)

	type key struct {
		client string
		seq    string
	}
	// Handler spans by identity; a retried append has several, the last
	// successful one is the one the client's span ends with.
	handled := make(map[key]handlerSpanAt)
	var handleUs []float64
	for i, m := range lc.members {
		if m.handler == nil {
			continue
		}
		for _, h := range m.handler.take() {
			if h.status != http.StatusOK {
				continue
			}
			handled[key{h.client, h.seq}] = handlerSpanAt{h, i}
			if !h.end.Before(w0) && h.end.Before(w1) {
				handleUs = append(handleUs, float64(h.end.Sub(h.start))/1e3)
			}
		}
	}
	tapAt := make([]map[key]time.Time, len(lc.members))
	for i, m := range lc.members {
		tapAt[i] = make(map[key]time.Time, len(m.marks))
		for _, mk := range m.marks {
			k := key{mk.client, fmt.Sprint(mk.seq)}
			if _, dup := tapAt[i][k]; !dup {
				tapAt[i][k] = mk.at
			}
		}
	}
	tr := lc.cfg.tr
	first := len(tr.spans)
	var clientUs, order, commit []float64
	for _, w := range writers {
		for _, a := range w.acks {
			if a.end.Before(w0) || !a.end.Before(w1) {
				continue
			}
			k := key{w.id, fmt.Sprint(a.seq)}
			h, ok := handled[k]
			if !ok || h.start.Before(a.start) || h.end.After(a.end) {
				continue
			}
			tap, ok := tapAt[h.member][k]
			if !ok || tap.Before(h.start) || tap.After(h.end) {
				continue
			}
			clientUs = append(clientUs, float64(a.end.Sub(a.start))/1e3)
			order = append(order, float64(tap.Sub(h.start))/1e3)
			commit = append(commit, float64(h.end.Sub(tap))/1e3)
			if a.seq%16 == 0 {
				req := fmt.Sprintf("%s-%d", w.id, a.seq)
				tr.add(req, "logdclient.append", "", a.start, a.end)
				tr.add(req, "logd.http.append", "logdclient.append", h.start, h.end)
				tr.add(req, "logd.apply.order", "logd.http.append", h.start, tap)
				tr.add(req, "logd.apply.commit", "logd.http.append", tap, h.end)
			}
		}
	}
	// The client library's and the HTTP transport's share is the client
	// span's self time: the span minus the handler span inside it. The
	// handler's own self time is nil by construction — the tap splits it
	// into its two children — until spans inside the server exist.
	overhead := selfTimes(tr.spans[first:])["logdclient.append"]
	out.set("logd.http.handle_us_p50", median(handleUs))
	out.set("logd.http.handle_us_p99", percentile(handleUs, 0.99))
	out.set("logdclient.overhead_us_p50", median(overhead))
	out.set("logd.apply.order_us_p50", median(order))
	out.set("logd.apply.commit_us_p50", median(commit))
	if c := median(clientUs); c > 0 {
		stages := median(overhead) + median(order) + median(commit)
		out.set("trace.closure_err", math.Abs(stages-c)/c)
		out.note("closure: client+http overhead p50 %.1f + order p50 %.1f + commit p50 %.1f = %.1f µs vs client p50 %.1f µs over %d joined appends",
			median(overhead), median(order), median(commit), stages, c, len(clientUs))
	}
	var tries float64
	for _, w := range writers {
		tries += float64(w.tried)
	}
	if tries > 0 {
		out.set("logdclient.attempts_per_append", float64(ctr.attempts.Load())/tries)
	}

	defer os.RemoveAll(lc.dir) // Close removed it; the replays below recreate it
	out.set("logd.admission.acquire_ns", admissionMicro(logdServerOptions.Admission))
	fsyncUs, err := fsyncMicro(lc.dir, recordLen, 200)
	if err != nil {
		return fmt.Errorf("fsync replay: %w", err)
	}
	out.set("disk.fsync_us_p50", fsyncUs)
	applyUs, readMBps, err := storeMicro(lc.dir, logdStoreOptions, recordLen, 300)
	if err != nil {
		return fmt.Errorf("store replay: %w", err)
	}
	out.set("logd.apply.store_apply_us_per_batch", applyUs)
	out.set("logd.apply.store_read_mb_per_s", readMBps)
	return nil
}

type handlerSpanAt struct {
	handlerSpan
	member int
}

// ----- logd-append --------------------------------------------------------

// logdAppend: G closed-loop writers, one keep-alive connection each, homed
// on different members, 128 B records.
type logdAppend struct{}

const appendRecordLen = 128

type logdInst struct {
	cfg    config
	traced bool
	lc     *logdCluster
}

func (logdAppend) setUp(cfg config, traced bool) (instance, error) {
	lc, err := newLogdCluster(cfg, traced)
	if err != nil {
		return nil, err
	}
	return &logdInst{cfg: cfg, traced: traced, lc: lc}, nil
}

func (in *logdInst) close() { in.lc.Close() }

func (in *logdInst) describe(out *outcome, what string) {
	out.note("%s; 4-member logd over passive replication, bare UDP on loopback (no injected delay), wire path %s; store: 4 MiB segments, snapshot every 4096, fsync on; per-client rate limit off, cold-start timeout %v; data under %s (%s)",
		what, in.lc.ring.path, logdServerOptions.ColdStartTimeout, filepath.Dir(in.lc.dir), fsType(in.lc.dir))
	out.note(tuneEcho)
}

func (in *logdInst) measure(window time.Duration, out *outcome) error {
	lc, ph := in.lc, phasesFor(in.cfg)
	G := generators()
	in.describe(out, fmt.Sprintf("logd-append: closed loop, %d logdclient writers homed on different members, %d B records", G, appendRecordLen))

	ctr := &rtCounters{}
	writers := make([]*writer, G)
	for i := range writers {
		w, err := newWriter(lc, i, in.cfg.seed, appendRecordLen, ctr)
		if err != nil {
			return err
		}
		writers[i] = w
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, w := range writers {
		wg.Add(1)
		go func(w *writer) { defer wg.Done(); w.run(stop) }(w)
	}
	time.Sleep(ph.warmup)
	b0 := lc.ring.bracket()
	sm := startSampler(func() float64 { return float64(ctr.acked.Load()) })
	time.Sleep(window)
	w0, w1 := sm.stop()
	b1 := lc.ring.bracket()
	close(stop)
	wg.Wait()
	sm.report(out, appendRecordLen)
	return in.finish(out, writers, ctr, b0, b1, w0, w1, appendRecordLen, true)
}

// finish is the common tail of both logd workloads: wait for the replicas
// to converge, read every member's log back and verify it, and report what
// the caller has not reported yet.
func (in *logdInst) finish(out *outcome, writers []*writer, ctr *rtCounters, b0, b1 bracket,
	w0, w1 time.Time, recordLen int, steady bool) error {
	lc, ph := in.lc, phasesFor(in.cfg)
	if !lc.waitConverged(2 * ph.drain) {
		out.violate("the members' tails did not converge within %v of the last append", 2*ph.drain)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	logs := make([][]logd.WireRecord, len(lc.members))
	for i := range lc.members {
		log, err := lc.fetchLog(ctx, i)
		if err != nil {
			return err
		}
		logs[i] = log
	}
	lc.verifyLogs(out, writers, logs)

	obs := appendObs(writers, w0, w1)
	elapsed := w1.Sub(w0)
	appends := float64(len(obs))
	for _, w := range writers {
		out.attempted += int64(w.tried)
		out.failed += int64(w.failed)
	}
	attempts, rejected := ctr.attempts.Load(), ctr.rejected.Load()
	share := float64(rejected) / float64(max(attempts, 1))
	out.set("logd.http.rejected_share", share)
	out.note("front door: %d append requests, %d refused with 425/429/503 (%d of them 429), %d without a response",
		attempts, rejected, ctr.rateLimited.Load(), ctr.noResponse.Load())
	// With the rate limit off nothing may be rate-limited; and with no fault
	// scheduled (logd-append) the front door has no reason to refuse anything.
	// When it does all the same, the ring re-formed under the service: the
	// host stalled past the token-loss timeout.
	if n := ctr.rateLimited.Load(); n > 0 {
		out.violate("%d appends were rate-limited (429) with the per-client limit off", n)
	}
	if steady && rejected > 0 {
		out.failed += int64(rejected)
		out.note("NOTE: %d of %d append requests were refused (425/429/503) with no fault scheduled; logd.http.rejected_share must be 0 here, so they count as failed", rejected, attempts)
	}
	if _, set := out.metrics["ops_per_s"]; !set {
		out.set("ops_per_s", appends/elapsed.Seconds())
		out.note("goodput: %.6g MB/s", appends*float64(recordLen)/elapsed.Seconds()/1e6)
		out.set("cpu_us_per_op", float64(b1.proc.cpu-b0.proc.cpu)/1e3/appends)
	}
	setLatency(out, obs, steady)
	out.note("appends: %d in the window; %.2f CPUs busy", len(obs), float64(b1.proc.cpu-b0.proc.cpu)/float64(elapsed))
	ringHealth(out, b0, b1, elapsed, !steady)

	if in.traced {
		lc.Close() // the taps' and handlers' buffers are quiescent from here
		return lc.logdLayers(out, writers, ctr, b0, b1, w0, w1, recordLen)
	}
	return nil
}
