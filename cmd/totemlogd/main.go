// Command totemlogd runs one member of a replicated-log service on the
// ring: an HTTP front door whose appends are totally ordered through
// Totem RRP, made durable in crash-safe log segments with periodic
// snapshots, and deduplicated per client so retries after failover never
// store twice. A killed member restarts from stable storage, carries its
// persisted epoch back into the ring, and catches up from its peers
// before serving.
//
// Example: a three-node log on two redundant (loopback) networks.
//
//	totemlogd -id 1 -data /tmp/log1 -http 127.0.0.1:8081 \
//	          -listen 127.0.0.1:5401,127.0.0.1:5501 \
//	          -peer 2=127.0.0.1:5402,127.0.0.1:5502 \
//	          -peer 3=127.0.0.1:5403,127.0.0.1:5503 \
//	          -peer-http http://127.0.0.1:8082 -peer-http http://127.0.0.1:8083
//
// (and symmetrically for -id 2 and -id 3), or, for a quick look without
// any of that, an in-process cluster:
//
//	totemlogd -demo 3
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	totem "github.com/totem-rrp/totem"
	"github.com/totem-rrp/totem/internal/live"
	"github.com/totem-rrp/totem/internal/logd"
)

type stringList []string

func (p *stringList) String() string     { return strings.Join(*p, " ") }
func (p *stringList) Set(v string) error { *p = append(*p, v); return nil }

func main() {
	var peers, peerHTTP stringList
	id := flag.Uint("id", 0, "node ID (non-zero, unique)")
	listen := flag.String("listen", "", "comma-separated ring addresses, one per redundant network")
	httpAddr := flag.String("http", "127.0.0.1:8080", "HTTP front-door address")
	dataDir := flag.String("data", "", "durable log directory (segments, snapshots, meta)")
	segBytes := flag.Int("segment-bytes", 4<<20, "rotate log segments at this size")
	snapEvery := flag.Int("snapshot-every", 4096, "snapshot the client table every N records (<0 disables)")
	rate := flag.Float64("rate", 500, "per-client append rate limit per second (<0 disables)")
	maxInflight := flag.Int("max-inflight", 1024, "admission control: max concurrent appends")
	maxRecord := flag.Int("max-record", 1<<20, "largest accepted record payload in bytes")
	demo := flag.Int("demo", 0, "ignore the other flags and boot an N-node in-process demo cluster")
	flag.Var(&peers, "peer", "ring peer spec id=addr1,addr2,... (repeatable)")
	flag.Var(&peerHTTP, "peer-http", "peer front-door URL for catch-up and sync (repeatable)")
	flag.Parse()

	var err error
	if *demo > 0 {
		err = runDemo(*demo)
	} else {
		err = run(uint32(*id), *listen, *httpAddr, *dataDir, peers, peerHTTP, logd.StoreOptions{
			SegmentBytes:  *segBytes,
			SnapshotEvery: *snapEvery,
		}, logd.ServerOptions{
			MaxRecordBytes: *maxRecord,
			Admission:      logd.AdmissionOptions{MaxInflight: *maxInflight, RatePerSec: *rate},
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(id uint32, listen, httpAddr, dataDir string, peers, peerHTTP stringList, sopt logd.StoreOptions, opt logd.ServerOptions) error {
	if id == 0 {
		return fmt.Errorf("-id is required and must be non-zero")
	}
	if listen == "" {
		return fmt.Errorf("-listen is required")
	}
	if dataDir == "" {
		return fmt.Errorf("-data is required")
	}
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return err
	}
	store, err := logd.OpenStore(dataDir, sopt)
	if err != nil {
		return err
	}
	defer store.Close()
	rep := store.RecoveryReport()
	if rep.Recovered {
		fmt.Printf("recovered log: next offset %d, epoch %d (truncated=%v orphaned=%d)\n",
			store.Next(), store.Epoch(), rep.Truncated, rep.Orphaned)
	}

	cfg := totem.UDPConfig{
		ID:     totem.NodeID(id),
		Listen: strings.Split(listen, ","),
		Peers:  map[totem.NodeID][]string{},
	}
	for _, spec := range peers {
		pid, addrs, ok := strings.Cut(spec, "=")
		if !ok {
			return fmt.Errorf("bad -peer %q, want id=addr1,addr2", spec)
		}
		n, err := strconv.ParseUint(pid, 10, 32)
		if err != nil || n == 0 {
			return fmt.Errorf("bad peer id in %q", spec)
		}
		cfg.Peers[totem.NodeID(n)] = strings.Split(addrs, ",")
	}
	tr, err := totem.NewUDPTransport(cfg)
	if err != nil {
		return err
	}
	defer tr.Close()

	epoch := store.Epoch()
	node, err := totem.NewNode(totem.Config{
		ID:          totem.NodeID(id),
		Networks:    len(cfg.Listen),
		Replication: totem.Passive,
		// An ack must survive the acking member's crash: Safe delivery
		// applies a record only once every member holds it.
		Delivery: totem.Safe,
		Tune: func(o *totem.Options) {
			if epoch > o.SRP.InitialEpoch {
				o.SRP.InitialEpoch = epoch
			}
		},
	}, tr)
	if err != nil {
		return err
	}
	defer node.Close()

	opt.NodeID = fmt.Sprintf("node-%d", id)
	opt.Peers = peerHTTP
	opt.Logf = func(format string, args ...any) { fmt.Printf(format+"\n", args...) }
	srv, err := logd.NewServer(node, store, opt)
	if err != nil {
		return err
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", httpAddr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln) //nolint:errcheck
	defer hs.Close()
	fmt.Printf("totemlogd node %d serving http://%s (ring on %s)\n", id, ln.Addr(), listen)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down: final snapshot, then exit")
	return nil
}

// runDemo boots an N-node cluster in one process on the in-memory
// transport — the quickest way to try the HTTP API with curl.
func runDemo(nodes int) error {
	dir, err := os.MkdirTemp("", "totemlogd-demo-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	c, err := live.NewLogdCluster(live.LogdClusterOptions{
		Nodes: nodes,
		Dir:   dir,
		Logf:  func(format string, args ...any) { fmt.Printf(format+"\n", args...) },
	})
	if err != nil {
		return err
	}
	defer c.Close()
	if err := c.WaitLive(30 * time.Second); err != nil {
		return err
	}
	fmt.Printf("demo cluster up (%d nodes, data in %s):\n", nodes, dir)
	for i, ep := range c.Endpoints() {
		fmt.Printf("  node-%d  %s\n", i+1, ep)
	}
	fmt.Printf("try:\n  curl -X POST --data-binary hello '%s/v1/append?client=me&seq=1'\n  curl '%s/v1/read?from=0'\n",
		c.Endpoint(0), c.Endpoint(1))
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	return nil
}
