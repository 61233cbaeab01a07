package live

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	totem "github.com/totem-rrp/totem"
	"github.com/totem-rrp/totem/internal/logd"
	"github.com/totem-rrp/totem/internal/proto"
	"github.com/totem-rrp/totem/internal/transport"
)

// LogdCluster boots N complete logd members — ring node, durable store,
// logd server, HTTP front door — on one machine, with the same netem
// impairment layer the torture harness uses. Members can be killed
// abruptly (kill -9 style: no snapshot, no graceful handoff, epoch comes
// back from the meta file) and restarted in place: the HTTP endpoint is
// re-bound on the same port so clients fail over and back, and the
// store's persisted epoch is carried into the new incarnation's
// InitialEpoch — the stable-storage half of the live harness's
// epoch-carry restart.
type LogdCluster struct {
	opt     LogdClusterOptions
	nm      *Netem
	fab     *fabric
	members []*logdMember
}

// LogdClusterOptions sizes a cluster. Dir is required.
type LogdClusterOptions struct {
	// Nodes is the member count (default 4).
	Nodes int
	// Networks is the redundant-network count (default 2).
	Networks int
	// Dir is the base directory; member i persists under Dir/node-<i>.
	Dir string
	// Transport is "mem" (default) or "udp".
	Transport string
	// Netem is the baseline impairment (default: none).
	Netem NetemParams
	// Store tunes each member's store (default: 64 KiB segments,
	// snapshot every 64 records — small, so restarts exercise both).
	Store logd.StoreOptions
	// Server tunes each member's server. Peers/NodeID are filled in by
	// the cluster; AckTimeout, ColdStartTimeout etc. pass through
	// (defaults: 15s ack, 3s cold start).
	Server logd.ServerOptions
	// Logf receives member diagnostics (default: discarded).
	Logf func(format string, args ...any)
}

type logdMember struct {
	id  proto.NodeID
	dir string

	mu      sync.Mutex
	tr      transport.Transport
	node    *totem.Node
	store   *logd.Store
	srv     *logd.Server
	handler http.Handler // srv's; nil while the member is down
	hs      *http.Server // the front door, open from reservation to Kill
	addr    string       // stable host:port of the front door
	crashed bool
}

// NewLogdCluster boots the cluster on the torture timers (liveTune); call
// WaitLive before using it.
func NewLogdCluster(opt LogdClusterOptions) (*LogdCluster, error) {
	if opt.Nodes <= 0 {
		opt.Nodes = 4
	}
	if opt.Networks <= 0 {
		opt.Networks = 2
	}
	if opt.Dir == "" {
		return nil, fmt.Errorf("logdcluster: Dir is required")
	}
	if opt.Transport == "" {
		opt.Transport = "mem"
	}
	if opt.Store.SegmentBytes == 0 {
		opt.Store.SegmentBytes = 64 << 10
	}
	if opt.Store.SnapshotEvery == 0 {
		opt.Store.SnapshotEvery = 64
	}
	if opt.Server.AckTimeout == 0 {
		opt.Server.AckTimeout = 15 * time.Second
	}
	if opt.Server.ColdStartTimeout == 0 {
		opt.Server.ColdStartTimeout = 3 * time.Second
	}
	if opt.Logf == nil {
		opt.Logf = func(string, ...any) {}
	}

	c := &LogdCluster{opt: opt, nm: NewNetem(opt.Networks, opt.Netem)}
	fab, err := newFabric(opt.Transport, opt.Nodes, opt.Networks, "", c.nm)
	if err != nil {
		return nil, err
	}
	c.fab = fab
	for _, id := range fab.order {
		m := &logdMember{id: id, dir: filepath.Join(opt.Dir, fmt.Sprintf("node-%d", id))}
		c.members = append(c.members, m)
		if err := os.MkdirAll(m.dir, 0o755); err != nil {
			c.Close()
			return nil, err
		}
		// Open every front door up front, so that each member can be told
		// its peers' endpoints before any boots.
		if err := m.openDoor(); err != nil {
			c.Close()
			return nil, err
		}
	}
	for _, m := range c.members {
		if err := c.startMember(m); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// peerURLs lists every member's front door except id's.
func (c *LogdCluster) peerURLs(id proto.NodeID) []string {
	var out []string
	for _, m := range c.members {
		if m.id != id {
			out = append(out, "http://"+m.addr)
		}
	}
	return out
}

// startMember boots one member's whole stack from its on-disk state.
func (c *LogdCluster) startMember(m *logdMember) error {
	store, err := logd.OpenStore(m.dir, c.opt.Store)
	if err != nil {
		return fmt.Errorf("logdcluster: node %v store: %w", m.id, err)
	}
	tr, err := c.fab.attach(m.id)
	if err != nil {
		store.Close()
		return err
	}
	epoch := store.Epoch() // persisted across kill -9 by the meta file
	node, err := totem.NewNode(totem.Config{
		ID:          m.id,
		Networks:    c.opt.Networks,
		Replication: proto.ReplicationPassive,
		Delivery:    totem.Safe, // as cmd/totemlogd: acks survive the acking member's crash
		Tune: func(o *totem.Options) {
			liveTune(o)
			if epoch > o.SRP.InitialEpoch {
				o.SRP.InitialEpoch = epoch
			}
		},
	}, tr)
	if err != nil {
		tr.Close()
		store.Close()
		return fmt.Errorf("logdcluster: node %v: %w", m.id, err)
	}
	sopt := c.opt.Server
	sopt.NodeID = fmt.Sprintf("node-%d", m.id)
	sopt.Peers = c.peerURLs(m.id)
	logf := c.opt.Logf
	sopt.Logf = func(format string, args ...any) { logf(format, args...) }
	srv, err := logd.NewServer(node, store, sopt)
	if err != nil {
		node.Close()
		tr.Close()
		store.Close()
		return err
	}
	m.mu.Lock()
	m.tr, m.node, m.store, m.srv, m.handler, m.crashed = tr, node, store, srv, srv.Handler(), false
	m.mu.Unlock()
	return nil
}

// openDoor binds the member's HTTP front door and serves on it at once: at
// boot on an ephemeral port, which becomes the member's stable address, on
// restart on that same port so that clients' endpoint lists survive. The
// port is never released in between — closed after reservation it was free
// for the cluster's own outgoing connections to take. While the member has
// no server behind it the door hangs up on every request, which is what
// "connection refused" told a peer polling a member that had not booted.
func (m *logdMember) openDoor() error {
	addr := m.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var ln net.Listener
	for attempt := 0; ; attempt++ {
		var err error
		if ln, err = net.Listen("tcp", addr); err == nil {
			break
		}
		// Kill closed the previous listener; give the kernel a beat to
		// release it.
		if attempt > 100 {
			return fmt.Errorf("logdcluster: binding %s: %w", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		m.mu.Lock()
		h := m.handler
		m.mu.Unlock()
		if h == nil {
			panic(http.ErrAbortHandler)
		}
		h.ServeHTTP(w, r)
	})}
	go hs.Serve(ln) //nolint:errcheck
	m.mu.Lock()
	m.addr, m.hs = ln.Addr().String(), hs
	m.mu.Unlock()
	return nil
}

// Endpoints returns every member's front-door URL, in member order. The
// list is stable across Kill/Restart.
func (c *LogdCluster) Endpoints() []string {
	out := make([]string, len(c.members))
	for i, m := range c.members {
		out[i] = "http://" + m.addr
	}
	return out
}

// Endpoint returns member i's (0-based) front-door URL.
func (c *LogdCluster) Endpoint(i int) string { return "http://" + c.members[i].addr }

// Netem returns the impairment layer, for fault injection mid-run.
func (c *LogdCluster) Netem() *Netem { return c.nm }

// Store returns member i's store; nil while the member is down.
func (c *LogdCluster) Store(i int) *logd.Store {
	m := c.members[i]
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.store
}

// Server returns member i's server; nil while the member is down.
func (c *LogdCluster) Server(i int) *logd.Server {
	m := c.members[i]
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.srv
}

// Kill fail-stops member i, kill -9 style: the HTTP listener drops, the
// ring node dies without a goodbye, and the store is abandoned with no
// final snapshot or sync — recovery gets only what Apply already fsynced
// plus the meta file's epoch.
func (c *LogdCluster) Kill(i int) { c.members[i].halt(true) }

// halt tears the member's stack down, front door first; idempotent. kill
// abandons the store as kill -9 would, otherwise it closes gracefully
// (final snapshot).
func (m *logdMember) halt(kill bool) {
	m.mu.Lock()
	tr, node, store, srv, hs := m.tr, m.node, m.store, m.srv, m.hs
	m.tr, m.node, m.store, m.srv, m.handler, m.hs = nil, nil, nil, nil, nil, nil
	m.crashed = true
	m.mu.Unlock()
	if hs != nil {
		hs.Close() //nolint:errcheck
	}
	if srv != nil {
		srv.Close()
	}
	if node != nil {
		node.Close()
	}
	if tr != nil {
		tr.Close()
	}
	if store != nil && kill {
		store.Kill()
	} else if store != nil {
		store.Close()
	}
}

// Restart reboots a killed member from its on-disk state. On the UDP
// transport the ring sockets re-bind fresh ports and every peer's table
// is updated; the HTTP front door re-binds its original port.
func (c *LogdCluster) Restart(i int) error {
	m := c.members[i]
	m.mu.Lock()
	crashed, open := m.crashed, m.hs != nil
	m.mu.Unlock()
	if !crashed {
		return nil
	}
	if !open { // still open if an earlier Restart failed past this point
		if err := m.openDoor(); err != nil {
			return err
		}
	}
	if err := c.fab.reopen(m.id); err != nil {
		return err
	}
	return c.startMember(m)
}

// WaitLive blocks until every non-crashed member's server reports live
// and its ring sees all non-crashed members.
func (c *LogdCluster) WaitLive(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		var nodes []*totem.Node
		live := 0
		for _, m := range c.members {
			m.mu.Lock()
			node, srv, crashed := m.node, m.srv, m.crashed
			m.mu.Unlock()
			if crashed || node == nil || srv == nil {
				continue
			}
			nodes = append(nodes, node)
			if srv.Live() {
				live++
			}
		}
		late := notJoined(nodes, 1)
		if len(nodes) > 0 && live == len(nodes) && len(late) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("logdcluster: not live after %s (%d/%d servers live, ring missing %v)",
				timeout, live, len(nodes), late)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// WaitConverged blocks until every live member's store has the same
// tail — the whole cluster holds the identical log.
func (c *LogdCluster) WaitConverged(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		var tails []uint64
		for _, m := range c.members {
			m.mu.Lock()
			store, crashed := m.store, m.crashed
			m.mu.Unlock()
			if crashed || store == nil {
				continue
			}
			tails = append(tails, store.Next())
		}
		same := len(tails) > 0
		for _, tl := range tails {
			if tl != tails[0] {
				same = false
			}
		}
		if same {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("logdcluster: tails did not converge after %s: %v", timeout, tails)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Close tears the whole cluster down (graceful stores: final snapshot).
func (c *LogdCluster) Close() {
	for _, m := range c.members {
		m.halt(false)
	}
	c.fab.close()
}
