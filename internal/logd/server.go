package logd

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	totem "github.com/totem-rrp/totem"
)

// The logd server: one ring member's front door. Appends are wrapped in
// an envelope, totally ordered through the ring (SendKeyed by client id,
// or the bulk lane for large records on a single-ring node), and applied
// by a single loop that consumes the Deliveries stream, assigns offsets,
// group-commits to the Store, and releases the waiting HTTP handlers —
// so an acknowledged append is both totally ordered and fsynced.
//
// A restarted member cannot learn the offsets of records ordered while
// it was down from the ring alone, so before going live it runs the
// catch-up protocol: order a sync marker through the ring, ask live
// peers (GET /v1/sync) where the marker applied, fetch the missing
// prefix (GET /v1/read) into the store, then apply deliveries from just
// after the marker copy the peer applied — the per-client dedup table
// absorbs the overlap between fetched records and buffered deliveries.
// When the whole cluster restarts at once there are no live peers; after
// ColdStartTimeout with every reachable peer also catching up, the
// lowest-named reachable member aligns to the maximum durable tail among
// them (safe because an acked record was fsynced by its origin before the
// ack) and goes live, and the others sync through it.

// SyncClientPrefix namespaces the reserved client ids sync markers use.
// The front door rejects client ids that collide with it.
const SyncClientPrefix = "\x00sync/"

// Error kinds carried in JSON error bodies. The client library keys its
// retryable-vs-fatal classification off these.
const (
	ErrKindValidation   = "validation"   // 400, fatal
	ErrKindStaleSeq     = "stale-seq"    // 409, fatal
	ErrKindTooLarge     = "too-large"    // 413, fatal
	ErrKindCatchingUp   = "catching-up"  // 425, retryable
	ErrKindRateLimited  = "rate-limited" // 429, retryable
	ErrKindReforming    = "reforming"    // 503, retryable
	ErrKindBackpressure = "backpressure" // 503, retryable
	ErrKindOverloaded   = "overloaded"   // 503, retryable
	ErrKindTimeout      = "timeout"      // 504, retryable
	ErrKindClosed       = "closed"       // 503, retryable (fail over)
)

// ErrorBody is the JSON error payload of every non-2xx response.
type ErrorBody struct {
	Kind      string `json:"kind"`
	Msg       string `json:"msg"`
	Retryable bool   `json:"retryable"`
}

// AppendResponse acknowledges one append with its assigned offset.
type AppendResponse struct {
	Offset uint64 `json:"offset"`
}

// WireRecord is the JSON form of one log record ([]byte marshals as
// base64).
type WireRecord struct {
	Offset  uint64 `json:"offset"`
	Kind    byte   `json:"kind"`
	Client  string `json:"client"`
	Seq     uint64 `json:"seq"`
	Payload []byte `json:"payload,omitempty"`
}

// ReadResponse carries a contiguous run of records and the server's
// current tail (the next offset it will assign).
type ReadResponse struct {
	Records []WireRecord `json:"records"`
	Next    uint64       `json:"next"`
}

// SyncResponse answers a sync-marker query with the marker's offset.
type SyncResponse struct {
	Offset uint64 `json:"offset"`
}

// StatusResponse is the /v1/logz body.
type StatusResponse struct {
	ID          string         `json:"id"`
	Live        bool           `json:"live"`
	Next        uint64         `json:"next"`
	Epoch       uint32         `json:"epoch"`
	Boot        uint64         `json:"boot"`
	Operational bool           `json:"operational"`
	State       string         `json:"state"`
	Inflight    int            `json:"inflight"`
	Recovery    RecoveryReport `json:"recovery"`
}

// ServerOptions configures one logd server. Node, Store and NodeID are
// required; everything else defaults.
type ServerOptions struct {
	// NodeID names this member (sync markers embed it, logz reports it).
	NodeID string
	// Peers are the base URLs ("http://host:port") of the other members'
	// logd front doors, used by catch-up. Empty means standalone.
	Peers []string
	// Admission tunes the front-door gate.
	Admission AdmissionOptions
	// AckTimeout bounds how long an append handler waits for its record
	// to be ordered and committed (default 10s).
	AckTimeout time.Duration
	// MaxRecordBytes bounds one append payload (default 1 MiB).
	MaxRecordBytes int
	// BulkThreshold routes records at least this large through the bulk
	// lane on a single-ring node (default 128 KiB; 0 default, negative
	// disables the bulk path).
	BulkThreshold int
	// ReadMax caps records per read/tail response (default 512).
	ReadMax int
	// ColdStartTimeout is how long catch-up waits for a live peer before
	// considering the all-peers-catching-up alignment (default 10s).
	ColdStartTimeout time.Duration
	// Logf receives server diagnostics (default: discarded).
	Logf func(format string, args ...any)
}

func (o ServerOptions) withDefaults() ServerOptions {
	if o.AckTimeout <= 0 {
		o.AckTimeout = 10 * time.Second
	}
	if o.MaxRecordBytes <= 0 {
		o.MaxRecordBytes = 1 << 20
	}
	if o.BulkThreshold == 0 {
		o.BulkThreshold = 128 << 10
	}
	if o.ReadMax <= 0 {
		o.ReadMax = 512
	}
	if o.ColdStartTimeout <= 0 {
		o.ColdStartTimeout = 10 * time.Second
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

type identKey struct {
	client string
	seq    uint64
}

type appendResult struct {
	offset uint64
	err    string // error kind, empty on success
}

type waiter struct {
	res  appendResult
	done chan struct{}
}

// Server is one logd member. Create with NewServer, expose Handler over
// HTTP, stop with Close (graceful) or Kill (crash simulation).
type Server struct {
	node  *totem.Node
	store *Store
	adm   *Admission
	opt   ServerOptions

	mu      sync.Mutex
	waiters map[identKey]*waiter
	applied chan struct{} // closed and replaced after every apply batch

	live     atomic.Bool
	applyErr atomic.Value // string; set when the apply loop dies on a disk error

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	httpc *http.Client
}

// NewServer starts the apply and housekeeping loops for one member. The
// caller retains ownership of node and store: close the Server first,
// then the node, then the store (or store.Kill for a crash).
func NewServer(node *totem.Node, store *Store, opt ServerOptions) (*Server, error) {
	if node == nil || store == nil {
		return nil, errors.New("logd: NewServer requires a node and a store")
	}
	if node.Shards() > 1 && !node.CrossOrdered() {
		// Offsets are assigned by apply order of the Deliveries stream;
		// without the cross-shard merge only per-shard subsequences agree
		// across members and replicas would diverge.
		return nil, errors.New("logd: Shards > 1 requires Config.CrossOrder")
	}
	opt = opt.withDefaults()
	if opt.NodeID == "" {
		opt.NodeID = fmt.Sprintf("node-%d", node.ID())
	}
	s := &Server{
		node:    node,
		store:   store,
		adm:     NewAdmission(opt.Admission),
		opt:     opt,
		waiters: make(map[identKey]*waiter),
		applied: make(chan struct{}),
		closed:  make(chan struct{}),
		httpc:   &http.Client{Timeout: 5 * time.Second},
	}
	s.wg.Add(2)
	go s.applyLoop()
	go s.houseLoop()
	return s, nil
}

// Close stops the server's loops and fails pending waiters. It does not
// close the node or the store.
func (s *Server) Close() {
	s.closeOnce.Do(func() { close(s.closed) })
	s.wg.Wait()
	s.mu.Lock()
	for k, w := range s.waiters {
		delete(s.waiters, k)
		w.res = appendResult{err: ErrKindClosed}
		close(w.done)
	}
	s.mu.Unlock()
}

// Live reports whether catch-up has completed and appends are served.
func (s *Server) Live() bool { return s.live.Load() }

// Store returns the server's store (for harness assertions).
func (s *Server) Store() *Store { return s.store }

func (s *Server) logf(format string, args ...any) { s.opt.Logf(format, args...) }

// houseLoop drains the node's side channels (so their queues never grow
// without a consumer) and persists the ring epoch on every
// membership change — the stable-storage half of the epoch-carry restart.
func (s *Server) houseLoop() {
	defer s.wg.Done()
	configs := s.node.ConfigChanges()
	faults := s.node.Faults()
	cleared := s.node.FaultsCleared()
	for {
		select {
		case cc, ok := <-configs:
			if !ok {
				configs = nil
				break
			}
			if err := s.store.SetEpoch(cc.Ring.Epoch); err != nil {
				s.logf("logd %s: persisting epoch %d: %v", s.opt.NodeID, cc.Ring.Epoch, err)
			}
		case _, ok := <-faults:
			if !ok {
				faults = nil
			}
		case _, ok := <-cleared:
			if !ok {
				cleared = nil
			}
		case <-s.closed:
			return
		}
		if configs == nil && faults == nil && cleared == nil {
			return
		}
	}
}

// ----- apply loop ---------------------------------------------------------

const applyBatchMax = 64

func (s *Server) applyLoop() {
	defer s.wg.Done()
	resume, ok := s.catchUp()
	if !ok {
		return // closed mid-catch-up
	}
	s.live.Store(true)
	s.logf("logd %s: live at offset %d", s.opt.NodeID, s.store.Next())
	// keep skips the delivery stream through the sync-marker copy catch-up
	// synced to (see syncTo).
	keep := func(d totem.Delivery) bool {
		if resume == nil {
			return true
		}
		if bytes.Equal(d.Payload, resume) {
			resume = nil
		}
		return false
	}
	deliveries := s.node.Deliveries()
	var batch []totem.Delivery
	for {
		var d totem.Delivery
		var ok bool
		select {
		case d, ok = <-deliveries:
		case <-s.closed:
			return
		}
		if !ok {
			return
		}
		batch = batch[:0]
		if keep(d) {
			batch = append(batch, d)
		}
	drain:
		for len(batch) < applyBatchMax {
			select {
			case d2, ok2 := <-deliveries:
				if !ok2 {
					break drain
				}
				if keep(d2) {
					batch = append(batch, d2)
				}
			default:
				break drain
			}
		}
		if !s.applyBatch(batch) {
			return
		}
	}
}

// applyBatch decodes, commits and acknowledges one batch of ordered
// deliveries. Returns false when the store failed (disk error) — the
// server stays up but degrades to rejecting appends.
func (s *Server) applyBatch(ds []totem.Delivery) bool {
	ins := make([]Incoming, 0, len(ds))
	for _, d := range ds {
		kind, client, seq, payload, err := DecodeEnvelope(d.Payload)
		if err != nil {
			s.logf("logd %s: dropping undecodable delivery from %d: %v", s.opt.NodeID, d.Sender, err)
			continue
		}
		ins = append(ins, Incoming{Kind: kind, Client: client, Seq: seq, Payload: payload})
	}
	if len(ins) == 0 {
		return true
	}
	applied, err := s.store.Apply(ins)
	if err != nil {
		s.logf("logd %s: apply failed, degrading: %v", s.opt.NodeID, err)
		s.applyErr.Store(err.Error())
		s.live.Store(false)
		return false
	}
	s.mu.Lock()
	for i, ap := range applied {
		if ap.Dup && ap.Offset == 0 {
			continue // stale duplicate of an old seq; nothing waits on it
		}
		key := identKey{ins[i].Client, ins[i].Seq}
		if w := s.waiters[key]; w != nil {
			delete(s.waiters, key)
			w.res = appendResult{offset: ap.Offset}
			close(w.done)
		}
	}
	ch := s.applied
	s.applied = make(chan struct{})
	s.mu.Unlock()
	close(ch) // wake tail long-polls
	return true
}

// appliedWait returns the channel closed by the next apply batch.
func (s *Server) appliedWait() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applied
}

// ----- catch-up -----------------------------------------------------------

// catchUp blocks until this member's store has every offset the cluster
// assigned while it was down, so the apply loop can resume at the right
// position. It returns the envelope of the sync-marker copy the apply loop
// must skip its delivery stream through (nil: apply the stream from its
// start), and false only when the server closed.
func (s *Server) catchUp() (resume []byte, ok bool) {
	if len(s.opt.Peers) == 0 {
		return nil, true // standalone: the local tail is the log
	}
	markerClient := SyncClientPrefix + s.opt.NodeID
	markerSeq := s.store.Boot()
	// Each copy of the marker carries its own send count, so the copy a
	// peer applied names exactly one position in this member's stream.
	var sends uint64
	send := func() bool {
		sends++
		nonce := binary.BigEndian.AppendUint64(nil, sends)
		return s.sendWithRetry(AppendEnvelope(nil, KindSync, markerClient, markerSeq, nonce))
	}
	if !send() {
		return nil, false
	}
	start := time.Now()
	lastResend := start
	for {
		select {
		case <-s.closed:
			return nil, false
		default:
		}
		liveSeen := false
		for _, peer := range s.opt.Peers {
			off, status, err := s.peerSync(peer, markerClient, markerSeq)
			switch {
			case err != nil:
				// unreachable
			case status == http.StatusOK:
				s.logf("logd %s: sync marker at offset %d (via %s)", s.opt.NodeID, off, peer)
				return s.syncTo(off, markerClient, markerSeq)
			case status == http.StatusTooEarly:
				// peer is catching up too
			default:
				liveSeen = true // live but marker not applied there yet
			}
		}
		again := false // sync again at once instead of sleeping
		if !liveSeen && time.Since(start) > s.opt.ColdStartTimeout {
			// No live peer anywhere: the whole cluster is (re)starting.
			// Exactly one member goes live on its own — the lowest-named
			// among itself and the reachable peers — aligned to the
			// maximum durable tail among them: acked records were fsynced
			// by their origin, so that tail covers every acknowledgement
			// ever issued (when every member is reachable; the timeout is
			// the operator's escape hatch past a permanently dead member).
			// Every other member syncs through it like a restarted one.
			// Members aligning side by side would each apply their own
			// delivery stream from offset 0, and those streams differ
			// whenever a member delivered in a configuration the others
			// never saw (a singleton ring at boot): the log would fork.
			target := s.store.Next()
			reachable, anyLive := 0, false
			leaderID, leader := s.opt.NodeID, ""
			for _, peer := range s.opt.Peers {
				st, err := s.peerStatus(peer)
				if err != nil {
					continue
				}
				reachable++
				anyLive = anyLive || st.Live
				if st.Next > target {
					target = st.Next
				}
				if st.ID < leaderID {
					leaderID, leader = st.ID, peer
				}
			}
			switch {
			case anyLive:
				// A peer went live since the sync round: sync through it.
				again = true
			case leader != "":
				if !s.awaitLive(leader) {
					return nil, false
				}
				again = true
			case reachable > 0 || time.Since(start) > 2*s.opt.ColdStartTimeout:
				s.logf("logd %s: cold-start alignment to tail %d (%d/%d peers reachable)",
					s.opt.NodeID, target, reachable, len(s.opt.Peers))
				return nil, s.fetchUpTo(target)
			}
		}
		if time.Since(lastResend) > 2*time.Second {
			// The marker may have been lost to a membership change while
			// queued, or ordered in a configuration no live peer saw;
			// re-ordering it is idempotent (same client+seq).
			if !send() {
				return nil, false
			}
			lastResend = time.Now()
		}
		if !again && !s.sleep(200*time.Millisecond) {
			return nil, false
		}
	}
}

// syncTo ingests the log through the sync marker a peer applied at off
// and returns that marker copy's envelope. This member's own delivery
// stream holds the same copy, ordered in the same configuration as at
// the peer, so the deliveries after it are the ones the peer applied after
// off, in the same order. The ones before it are either in the fetched
// prefix already or were ordered where the peer never saw them, and
// applying those would fork the log.
func (s *Server) syncTo(off uint64, client string, seq uint64) ([]byte, bool) {
	if !s.fetchUpTo(off + 1) {
		return nil, false
	}
	recs, err := s.store.Read(off, 1, 0)
	if err != nil || len(recs) == 0 || recs[0].Kind != KindSync || recs[0].Client != client || recs[0].Seq != seq {
		s.logf("logd %s: offset %d does not hold this member's sync marker (%v); applying deliveries from the stream's start",
			s.opt.NodeID, off, err)
		return nil, true
	}
	return AppendEnvelope(nil, KindSync, client, seq, recs[0].Payload), true
}

// awaitLive polls peer until it reports live, for at most the cold-start
// timeout, so a member waiting on the cold-start leader syncs within a
// poll of the leader going live. Returns false only when the server
// closed.
func (s *Server) awaitLive(peer string) bool {
	deadline := time.Now().Add(s.opt.ColdStartTimeout)
	for time.Now().Before(deadline) {
		if st, err := s.peerStatus(peer); err != nil || st.Live {
			return true
		}
		if !s.sleep(5 * time.Millisecond) {
			return false
		}
	}
	return true
}

// sendWithRetry queues env on the ring, retrying past backpressure.
func (s *Server) sendWithRetry(env []byte) bool {
	for {
		err := s.node.Send(append([]byte(nil), env...))
		if err == nil {
			return true
		}
		if errors.Is(err, totem.ErrClosed) {
			return false
		}
		if !s.sleep(50 * time.Millisecond) {
			return false
		}
	}
}

// fetchUpTo ingests [store.Next(), target) from whichever peers answer.
func (s *Server) fetchUpTo(target uint64) bool {
	for s.store.Next() < target {
		progressed := false
		for _, peer := range s.opt.Peers {
			recs, err := s.peerRead(peer, s.store.Next(), s.opt.ReadMax)
			if err != nil || len(recs) == 0 {
				continue
			}
			if err := s.store.Ingest(recs); err != nil {
				s.logf("logd %s: ingest from %s: %v", s.opt.NodeID, peer, err)
				continue
			}
			progressed = true
			break
		}
		if !progressed {
			if !s.sleep(200 * time.Millisecond) {
				return false
			}
		}
	}
	return true
}

func (s *Server) sleep(d time.Duration) bool {
	select {
	case <-time.After(d):
		return true
	case <-s.closed:
		return false
	}
}

// ----- peer HTTP ----------------------------------------------------------

func (s *Server) peerSync(peer, client string, seq uint64) (offset uint64, status int, err error) {
	u := fmt.Sprintf("%s/v1/sync?client=%s&seq=%d&wait_ms=500", peer, url.QueryEscape(client), seq)
	resp, err := s.httpc.Get(u)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)) //nolint:errcheck
		return 0, resp.StatusCode, nil
	}
	var sr SyncResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&sr); err != nil {
		return 0, 0, err
	}
	return sr.Offset, http.StatusOK, nil
}

func (s *Server) peerStatus(peer string) (StatusResponse, error) {
	resp, err := s.httpc.Get(peer + "/v1/logz")
	if err != nil {
		return StatusResponse{}, err
	}
	defer resp.Body.Close()
	var st StatusResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&st); err != nil {
		return StatusResponse{}, err
	}
	return st, nil
}

func (s *Server) peerRead(peer string, from uint64, maxN int) ([]Record, error) {
	u := fmt.Sprintf("%s/v1/read?from=%d&max=%d", peer, from, maxN)
	resp, err := s.httpc.Get(u)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)) //nolint:errcheck
		return nil, fmt.Errorf("logd: peer read %s: status %d", peer, resp.StatusCode)
	}
	var rr ReadResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 256<<20)).Decode(&rr); err != nil {
		return nil, err
	}
	recs := make([]Record, len(rr.Records))
	for i, w := range rr.Records {
		recs[i] = Record{Offset: w.Offset, Kind: w.Kind, Client: w.Client, Seq: w.Seq, Payload: w.Payload}
	}
	return recs, nil
}

// ----- HTTP front door ----------------------------------------------------

// Handler returns the logd HTTP API:
//
//	POST /v1/append?client=C&seq=N   body: payload   -> {"offset":o}
//	GET  /v1/read?from=N&max=M                       -> {"records":[...],"next":t}
//	GET  /v1/tail?from=N&max=M&wait_ms=T             -> like read, long-polls
//	GET  /v1/sync?client=C&seq=N&wait_ms=T           -> {"offset":o}
//	GET  /v1/logz                                    -> status JSON
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/append", s.handleAppend)
	mux.HandleFunc("/v1/read", s.handleRead)
	mux.HandleFunc("/v1/tail", s.handleTail)
	mux.HandleFunc("/v1/sync", s.handleSync)
	mux.HandleFunc("/v1/client", s.handleClient)
	mux.HandleFunc("/v1/logz", s.handleLogz)
	return mux
}

// ClientResponse reports a client's dedup state: its last applied seq
// and that record's offset. A restarted client resumes from here.
type ClientResponse struct {
	Known  bool   `json:"known"`
	Seq    uint64 `json:"seq"`
	Offset uint64 `json:"offset"`
}

func (s *Server) handleClient(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if id == "" {
		writeErr(w, http.StatusBadRequest, ErrKindValidation, "id required", false)
		return
	}
	cs, ok := s.store.Client(id)
	writeJSON(w, ClientResponse{Known: ok, Seq: cs.Seq, Offset: cs.Offset})
}

func writeErr(w http.ResponseWriter, status int, kind, msg string, retryable bool) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(ErrorBody{Kind: kind, Msg: msg, Retryable: retryable}) //nolint:errcheck
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v) //nolint:errcheck
}

func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, ErrKindValidation, "POST required", false)
		return
	}
	q := r.URL.Query()
	client := q.Get("client")
	if client == "" || len(client) > MaxClientID {
		writeErr(w, http.StatusBadRequest, ErrKindValidation, "client id must be 1..256 bytes", false)
		return
	}
	if strings.HasPrefix(client, "\x00") {
		writeErr(w, http.StatusBadRequest, ErrKindValidation, "client ids starting with NUL are reserved", false)
		return
	}
	seq, err := strconv.ParseUint(q.Get("seq"), 10, 64)
	if err != nil || seq == 0 {
		writeErr(w, http.StatusBadRequest, ErrKindValidation, "seq must be a positive integer", false)
		return
	}
	payload, err := io.ReadAll(io.LimitReader(r.Body, int64(s.opt.MaxRecordBytes)+1))
	if err != nil {
		writeErr(w, http.StatusBadRequest, ErrKindValidation, "reading body: "+err.Error(), false)
		return
	}
	if len(payload) > s.opt.MaxRecordBytes {
		writeErr(w, http.StatusRequestEntityTooLarge, ErrKindTooLarge,
			fmt.Sprintf("payload exceeds %d bytes", s.opt.MaxRecordBytes), false)
		return
	}
	if msg, ok := s.applyErr.Load().(string); ok {
		writeErr(w, http.StatusServiceUnavailable, ErrKindClosed, "store degraded: "+msg, true)
		return
	}
	if !s.live.Load() {
		writeErr(w, http.StatusTooEarly, ErrKindCatchingUp, "member is catching up", true)
		return
	}
	// Idempotency fast path: a retry of the client's last acknowledged
	// append returns the original offset without re-ordering anything.
	if cs, ok := s.store.Client(client); ok {
		if seq == cs.Seq {
			writeJSON(w, AppendResponse{Offset: cs.Offset})
			return
		}
		if seq < cs.Seq {
			writeErr(w, http.StatusConflict, ErrKindStaleSeq,
				fmt.Sprintf("seq %d already superseded (last acked %d)", seq, cs.Seq), false)
			return
		}
	}
	if !s.node.OperationalOf(s.node.ShardOf([]byte(client))) {
		writeErr(w, http.StatusServiceUnavailable, ErrKindReforming, "ring is reforming", true)
		return
	}
	if !s.adm.AllowClient(client) {
		writeErr(w, http.StatusTooManyRequests, ErrKindRateLimited, "client rate limit", true)
		return
	}
	if !s.adm.Acquire() {
		writeErr(w, http.StatusServiceUnavailable, ErrKindOverloaded, "append capacity", true)
		return
	}
	defer s.adm.Release()

	// Register (or join) the waiter, then (re-)order the record. Retries
	// always re-send: the envelope is idempotent and a resend heals a
	// submission lost to a membership change. An abandoned waiter entry
	// is reclaimed when its record finally applies or at Close.
	key := identKey{client, seq}
	s.mu.Lock()
	wt := s.waiters[key]
	if wt == nil {
		wt = &waiter{done: make(chan struct{})}
		s.waiters[key] = wt
	}
	s.mu.Unlock()

	env := AppendEnvelope(nil, KindData, client, seq, payload)
	if err := s.order(client, env); err != nil {
		switch {
		case errors.Is(err, totem.ErrBackpressure):
			writeErr(w, http.StatusServiceUnavailable, ErrKindBackpressure, "send queue full", true)
		case errors.Is(err, totem.ErrClosed):
			writeErr(w, http.StatusServiceUnavailable, ErrKindClosed, "ring node closed", true)
		default:
			writeErr(w, http.StatusServiceUnavailable, ErrKindOverloaded, err.Error(), true)
		}
		return
	}

	timer := time.NewTimer(s.opt.AckTimeout)
	defer timer.Stop()
	select {
	case <-wt.done:
		if wt.res.err != "" {
			writeErr(w, http.StatusServiceUnavailable, wt.res.err, "append failed: "+wt.res.err, true)
			return
		}
		writeJSON(w, AppendResponse{Offset: wt.res.offset})
	case <-timer.C:
		writeErr(w, http.StatusGatewayTimeout, ErrKindTimeout, "ordering timed out", true)
	case <-r.Context().Done():
		// client went away; the record may still commit — that's what the
		// idempotency key is for.
	case <-s.closed:
		writeErr(w, http.StatusServiceUnavailable, ErrKindClosed, "server closing", true)
	}
}

// order submits one envelope to the ring: the bulk lane for large
// records on a single-ring node, SendKeyed otherwise.
func (s *Server) order(client string, env []byte) error {
	if s.opt.BulkThreshold > 0 && len(env) >= s.opt.BulkThreshold && s.node.Shards() == 1 {
		if _, err := s.node.SendBulk(env); err == nil {
			return nil
		} else if errors.Is(err, totem.ErrClosed) {
			return err
		}
		// Bulk refused (config limits): fall through to the regular lane,
		// which fragments arbitrarily large messages.
	}
	return s.node.SendKeyed([]byte(client), env)
}

func (s *Server) handleRead(w http.ResponseWriter, r *http.Request) {
	from, maxN, _, ok := readParams(w, r, s.opt.ReadMax)
	if !ok {
		return
	}
	// Read serves from the durable store even while catching up: records
	// on disk were committed by the ordered apply loop before any crash.
	recs, err := s.store.Read(from, maxN, 8<<20)
	if err != nil {
		writeErr(w, http.StatusBadRequest, ErrKindValidation, err.Error(), false)
		return
	}
	writeJSON(w, readResponse(recs, s.store.Next()))
}

func (s *Server) handleTail(w http.ResponseWriter, r *http.Request) {
	from, maxN, wait, ok := readParams(w, r, s.opt.ReadMax)
	if !ok {
		return
	}
	if wait <= 0 {
		wait = 10 * time.Second
	}
	deadline := time.Now().Add(wait)
	for {
		recs, err := s.store.Read(from, maxN, 8<<20)
		if err != nil {
			writeErr(w, http.StatusBadRequest, ErrKindValidation, err.Error(), false)
			return
		}
		if len(recs) > 0 || !time.Now().Before(deadline) {
			writeJSON(w, readResponse(recs, s.store.Next()))
			return
		}
		applied := s.appliedWait()
		timer := time.NewTimer(time.Until(deadline))
		select {
		case <-applied:
		case <-timer.C:
		case <-r.Context().Done():
			timer.Stop()
			return
		case <-s.closed:
			timer.Stop()
			writeJSON(w, readResponse(nil, s.store.Next()))
			return
		}
		timer.Stop()
	}
}

func readParams(w http.ResponseWriter, r *http.Request, readMax int) (from uint64, maxN int, wait time.Duration, ok bool) {
	q := r.URL.Query()
	var err error
	if v := q.Get("from"); v != "" {
		if from, err = strconv.ParseUint(v, 10, 64); err != nil {
			writeErr(w, http.StatusBadRequest, ErrKindValidation, "bad from", false)
			return 0, 0, 0, false
		}
	}
	maxN = readMax
	if v := q.Get("max"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeErr(w, http.StatusBadRequest, ErrKindValidation, "bad max", false)
			return 0, 0, 0, false
		}
		if n < maxN {
			maxN = n
		}
	}
	if v := q.Get("wait_ms"); v != "" {
		ms, err := strconv.Atoi(v)
		if err != nil || ms < 0 {
			writeErr(w, http.StatusBadRequest, ErrKindValidation, "bad wait_ms", false)
			return 0, 0, 0, false
		}
		wait = time.Duration(ms) * time.Millisecond
	}
	return from, maxN, wait, true
}

func readResponse(recs []Record, next uint64) ReadResponse {
	out := ReadResponse{Records: make([]WireRecord, len(recs)), Next: next}
	for i, rec := range recs {
		out.Records[i] = WireRecord{Offset: rec.Offset, Kind: rec.Kind, Client: rec.Client, Seq: rec.Seq, Payload: rec.Payload}
	}
	return out
}

func (s *Server) handleSync(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	client := q.Get("client")
	seq, err := strconv.ParseUint(q.Get("seq"), 10, 64)
	if client == "" || err != nil {
		writeErr(w, http.StatusBadRequest, ErrKindValidation, "client and seq required", false)
		return
	}
	wait := 500 * time.Millisecond
	if v := q.Get("wait_ms"); v != "" {
		if ms, err := strconv.Atoi(v); err == nil && ms >= 0 {
			wait = time.Duration(ms) * time.Millisecond
		}
	}
	if cs, ok := s.store.Client(client); ok && cs.Seq >= seq {
		if cs.Seq == seq {
			writeJSON(w, SyncResponse{Offset: cs.Offset})
			return
		}
		writeErr(w, http.StatusConflict, ErrKindStaleSeq, "marker superseded", false)
		return
	}
	if !s.live.Load() {
		writeErr(w, http.StatusTooEarly, ErrKindCatchingUp, "member is catching up", true)
		return
	}
	// Live but the marker hasn't applied here yet: wait for it briefly.
	key := identKey{client, seq}
	s.mu.Lock()
	wt := s.waiters[key]
	if wt == nil {
		wt = &waiter{done: make(chan struct{})}
		s.waiters[key] = wt
	}
	s.mu.Unlock()
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-wt.done:
		if wt.res.err != "" {
			writeErr(w, http.StatusServiceUnavailable, wt.res.err, "sync failed", true)
			return
		}
		writeJSON(w, SyncResponse{Offset: wt.res.offset})
	case <-timer.C:
		writeErr(w, http.StatusGatewayTimeout, ErrKindTimeout, "marker not yet applied", true)
	case <-r.Context().Done():
	case <-s.closed:
		writeErr(w, http.StatusServiceUnavailable, ErrKindClosed, "server closing", true)
	}
}

func (s *Server) handleLogz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, StatusResponse{
		ID:          s.opt.NodeID,
		Live:        s.live.Load(),
		Next:        s.store.Next(),
		Epoch:       s.store.Epoch(),
		Boot:        s.store.Boot(),
		Operational: s.node.Operational(),
		State:       s.node.StateName(),
		Inflight:    s.adm.Inflight(),
		Recovery:    s.store.RecoveryReport(),
	})
}
