// Command totemnode runs one Totem RRP node over real UDP sockets — a
// line-oriented group chat that demonstrates the library end to end.
// Every line typed on stdin is broadcast with total ordering; deliveries,
// membership changes and network-fault alarms are printed as they happen.
//
// Example: a two-node ring on two redundant (loopback) networks.
//
//	totemnode -id 1 -listen 127.0.0.1:5401,127.0.0.1:5501 \
//	          -peer 2=127.0.0.1:5402,127.0.0.1:5502 -style passive
//	totemnode -id 2 -listen 127.0.0.1:5402,127.0.0.1:5502 \
//	          -peer 1=127.0.0.1:5401,127.0.0.1:5501 -style passive
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	totem "github.com/totem-rrp/totem"
	"github.com/totem-rrp/totem/internal/debughttp"
)

type peerList []string

func (p *peerList) String() string     { return strings.Join(*p, " ") }
func (p *peerList) Set(v string) error { *p = append(*p, v); return nil }

func main() {
	var peers peerList
	id := flag.Uint("id", 0, "node ID (non-zero, unique)")
	listen := flag.String("listen", "", "comma-separated local addresses, one per redundant network")
	style := flag.String("style", "passive", "replication style: none, active, passive, active-passive")
	k := flag.Int("k", 2, "copies for active-passive replication")
	shards := flag.Int("shards", 1, "independent rings over the same networks; >1 enables /key sends and per-shard debug views")
	debugAddr := flag.String("debug-addr", "", "serve /healthz /stats /trace (and /shards, /stats?shard=N on a sharded node) on this address (e.g. 127.0.0.1:6060)")
	flag.Var(&peers, "peer", "peer spec id=addr1,addr2,... (repeatable)")
	flag.Parse()
	if err := run(uint32(*id), *listen, *style, *k, *shards, *debugAddr, peers); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func parseStyle(s string) (totem.ReplicationStyle, error) {
	switch s {
	case "none":
		return totem.NoReplication, nil
	case "active":
		return totem.Active, nil
	case "passive":
		return totem.Passive, nil
	case "active-passive", "ap":
		return totem.ActivePassive, nil
	default:
		return 0, fmt.Errorf("unknown style %q", s)
	}
}

func run(id uint32, listen, styleName string, k, shards int, debugAddr string, peers peerList) error {
	if id == 0 {
		return fmt.Errorf("-id is required and must be non-zero")
	}
	if listen == "" {
		return fmt.Errorf("-listen is required")
	}
	style, err := parseStyle(styleName)
	if err != nil {
		return err
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

	ncfg := totem.Config{
		ID:          totem.NodeID(id),
		Networks:    len(cfg.Listen),
		Replication: style,
		K:           k,
		Shards:      shards,
	}
	if debugAddr != "" {
		// Retain recent protocol events for the /trace endpoint.
		ncfg.Tune = func(o *totem.Options) { o.TraceCapacity = 4096 }
	}
	node, err := totem.NewNode(ncfg, tr)
	if err != nil {
		return err
	}
	defer node.Close()

	if debugAddr != "" {
		dcfg := debughttp.Config{
			Health: func() any {
				ring, members := node.Ring()
				return map[string]any{
					"status":      "ok",
					"id":          id,
					"operational": node.Operational(),
					"ring_rep":    uint32(ring.Rep),
					"ring_epoch":  ring.Epoch,
					"members":     len(members),
					"faults":      node.NetworkFaults(),
					"shards":      node.Shards(),
				}
			},
			Metrics: node.Metrics(),
			Trace:   node.Trace(),
		}
		if node.Shards() > 1 {
			dcfg.Shards = node.Shards()
			dcfg.MetricsOf = node.MetricsOf
			dcfg.ShardHealth = func(s int) any {
				ring, members := node.RingOf(s)
				return map[string]any{
					"shard":       s,
					"operational": node.OperationalOf(s),
					"ring_rep":    uint32(ring.Rep),
					"ring_epoch":  ring.Epoch,
					"members":     len(members),
				}
			}
		}
		ln, stopDebug, err := debughttp.Serve(debugAddr, dcfg)
		if err != nil {
			return fmt.Errorf("debug endpoint: %w", err)
		}
		defer stopDebug()
		fmt.Printf("debug endpoints on http://%s/{healthz,stats,trace}\n", ln.Addr())
	}

	fmt.Printf("node %d up on %d network(s), style %v, %d shard(s) — type to broadcast; /status /stats /readmit <n> /key <k> <msg>\n",
		id, len(cfg.Listen), style, node.Shards())

	go func() {
		for d := range node.Deliveries() {
			if node.Shards() > 1 {
				fmt.Printf("[%v shard=%d seq=%d] %s\n", d.Sender, d.Shard, d.Seq, d.Payload)
			} else {
				fmt.Printf("[%v seq=%d] %s\n", d.Sender, d.Seq, d.Payload)
			}
		}
	}()
	go func() {
		for f := range node.Faults() {
			fmt.Printf("!! FAULT: %v\n", f)
		}
	}()
	go func() {
		for c := range node.FaultsCleared() {
			fmt.Printf("!! HEALED: %v\n", c)
		}
	}()
	go func() {
		for c := range node.ConfigChanges() {
			fmt.Printf("** %v\n", c)
		}
	}()

	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		// Operator commands; anything else is broadcast.
		switch {
		case line == "/status":
			if node.Shards() > 1 {
				for s := 0; s < node.Shards(); s++ {
					ring, members := node.RingOf(s)
					fmt.Printf("shard %d ring %v members %v operational %v\n",
						s, ring, members, node.OperationalOf(s))
				}
				fmt.Printf("faults %v\n", node.NetworkFaults())
				continue
			}
			ring, members := node.Ring()
			fmt.Printf("ring %v members %v faults %v\n", ring, members, node.NetworkFaults())
		case line == "/stats":
			// The same JSON -debug-addr serves on /stats?shard=N.
			for s := 0; s < node.Shards(); s++ {
				if err := node.MetricsOf(s).WriteJSON(os.Stdout); err != nil {
					return err
				}
			}
		case strings.HasPrefix(line, "/key "):
			rest := strings.TrimPrefix(line, "/key ")
			key, msg, ok := strings.Cut(rest, " ")
			if !ok {
				fmt.Println("usage: /key <key> <message>")
				continue
			}
			if err := node.SendKeyed([]byte(key), []byte(msg)); err != nil {
				fmt.Printf("keyed send failed: %v\n", err)
				continue
			}
			fmt.Printf("sent on shard %d\n", node.ShardOf([]byte(key)))
		case strings.HasPrefix(line, "/readmit "):
			var net int
			if _, err := fmt.Sscanf(line, "/readmit %d", &net); err != nil {
				fmt.Println("usage: /readmit <network>")
				continue
			}
			node.ReadmitNetwork(net)
			fmt.Printf("network %d readmitted; faults now %v\n", net, node.NetworkFaults())
		default:
			if err := node.Send([]byte(line)); err != nil {
				fmt.Printf("send failed: %v\n", err)
			}
		}
	}
	return sc.Err()
}
