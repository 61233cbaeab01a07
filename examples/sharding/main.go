// Sharding: one Node runs four independent rings over the same two
// redundant networks. Keys route to shards (FNV-1a by default), each
// shard delivers its own total order, and faulting or saturating one
// shard never stalls the others. A second cluster turns on CrossOrder
// and shows every node deriving the identical merged cross-shard
// sequence with no extra agreement round.
//
//	go run ./examples/sharding
package main

import (
	"fmt"
	"log"
	"os"
	"reflect"
	"time"

	totem "github.com/totem-rrp/totem"
)

const (
	members  = 3
	networks = 2
	shards   = 4
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	nodes, err := boot(false)
	if err != nil {
		return err
	}
	defer closeAll(nodes)

	// Keyed sends: each key lands on one ring and stays ordered there.
	// dave/bob/alice/carol hash to shards 0/1/2/3 — one ring each.
	keys := []string{"account:dave", "account:bob", "account:alice", "account:carol"}
	for _, key := range keys {
		log.Printf("key %-14q -> shard %d", key, nodes[0].ShardOf([]byte(key)))
	}
	for round := 0; round < 3; round++ {
		for _, key := range keys {
			msg := fmt.Sprintf("%s update %d", key, round)
			if err := nodes[0].SendKeyed([]byte(key), []byte(msg)); err != nil {
				return err
			}
		}
	}

	// Every node drains the same 12 messages; group them by shard to
	// show the per-ring orders.
	perShard := make([][]string, shards)
	for i := 0; i < len(keys)*3; i++ {
		d := <-nodes[1].Deliveries()
		perShard[d.Shard] = append(perShard[d.Shard], string(d.Payload))
	}
	for s, msgs := range perShard {
		fmt.Printf("shard %d delivered in order:\n", s)
		for _, m := range msgs {
			fmt.Printf("  %s\n", m)
		}
	}

	// Per-shard introspection rides along.
	for s := 0; s < nodes[0].Shards(); s++ {
		ring, ids := nodes[0].RingOf(s)
		delivered, _ := nodes[0].MetricsOf(s).Get("srp.msgs_delivered")
		fmt.Printf("shard %d: ring %v members %v delivered %d\n", s, ring, ids, delivered)
	}

	closeAll(nodes)

	// Part two: the same cluster with the deterministic cross-shard
	// merge — one global total order on top of the sharded throughput.
	nodes, err = boot(true)
	if err != nil {
		return err
	}
	defer closeAll(nodes)

	for round := 0; round < 3; round++ {
		for _, key := range keys {
			msg := fmt.Sprintf("%s merged %d", key, round)
			if err := nodes[round%members].SendKeyed([]byte(key), []byte(msg)); err != nil {
				return err
			}
		}
	}
	merged := make([][]string, members)
	for i, n := range nodes {
		for len(merged[i]) < len(keys)*3 {
			d := <-n.Deliveries()
			merged[i] = append(merged[i], string(d.Payload))
		}
	}
	for i := 1; i < members; i++ {
		if !reflect.DeepEqual(merged[0], merged[i]) {
			return fmt.Errorf("nodes disagree on the merged order")
		}
	}
	fmt.Println("cross-order: all nodes derived the identical merged sequence:")
	for _, m := range merged[0] {
		fmt.Printf("  %s\n", m)
	}
	return nil
}

// boot forms a members-node cluster with `shards` rings and waits until
// every shard of every node is operational with full membership.
func boot(crossOrder bool) ([]*totem.Node, error) {
	hub := totem.NewMemHub(networks)
	nodes := make([]*totem.Node, 0, members)
	for i := 1; i <= members; i++ {
		tr, err := hub.Join(totem.NodeID(i))
		if err != nil {
			return nil, err
		}
		node, err := totem.NewNode(totem.Config{
			ID:          totem.NodeID(i),
			Networks:    networks,
			Replication: totem.Passive,
			Shards:      shards,
			CrossOrder:  crossOrder,
		}, tr)
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, node)
	}
	for !allJoined(nodes) {
		time.Sleep(20 * time.Millisecond)
	}
	return nodes, nil
}

func allJoined(nodes []*totem.Node) bool {
	for _, n := range nodes {
		for s := 0; s < n.Shards(); s++ {
			if _, ids := n.RingOf(s); len(ids) != members || !n.OperationalOf(s) {
				return false
			}
		}
	}
	return true
}

func closeAll(nodes []*totem.Node) {
	for _, n := range nodes {
		n.Close()
	}
}
