package shard

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/totem-rrp/totem/internal/proto"
)

func TestHashRangeAndStability(t *testing.T) {
	// Stable across runs/platforms: pin a couple of known mappings.
	if got := Hash([]byte("user:1234"), 8); got != Hash([]byte("user:1234"), 8) {
		t.Fatal("hash not deterministic")
	}
	counts := make([]int, 8)
	for i := 0; i < 4096; i++ {
		s := Hash([]byte(fmt.Sprintf("key-%d", i)), 8)
		if s < 0 || s >= 8 {
			t.Fatalf("hash out of range: %d", s)
		}
		counts[s]++
	}
	for s, n := range counts {
		if n < 4096/8/2 {
			t.Fatalf("shard %d badly underloaded: %d/4096", s, n)
		}
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	app := WrapApp(77, []byte("payload"))
	kind, ts, body, err := Unwrap(app)
	if err != nil || kind != KindApp || ts != 77 || !bytes.Equal(body, []byte("payload")) {
		t.Fatalf("app round trip: kind=%#x ts=%d body=%q err=%v", kind, ts, body, err)
	}
	mk := WrapMarker(12)
	kind, ts, body, err = Unwrap(mk)
	if err != nil || kind != KindMarker || ts != 12 || len(body) != 0 {
		t.Fatalf("marker round trip: kind=%#x ts=%d body=%q err=%v", kind, ts, body, err)
	}
	for _, bad := range [][]byte{nil, {KindApp}, {0x7f, 0, 0, 0, 0, 0, 0, 0, 0}} {
		if _, _, _, err := Unwrap(bad); !errors.Is(err, ErrEnvelope) {
			t.Fatalf("Unwrap(%v) = %v, want ErrEnvelope", bad, err)
		}
	}
}

func TestClock(t *testing.T) {
	var c Clock
	if c.Tick() != 1 || c.Tick() != 2 {
		t.Fatal("Tick must count from 1")
	}
	c.Observe(100)
	if got := c.Tick(); got != 101 {
		t.Fatalf("Tick after Observe(100) = %d, want 101", got)
	}
	c.Observe(50) // stale observation must not rewind
	if got := c.Tick(); got != 102 {
		t.Fatalf("Tick after stale Observe = %d, want 102", got)
	}
}

// stream is one shard's delivered sequence for merge tests.
type stream []Item

// refMerge computes the specification order: effective timestamps are the
// per-shard running max, global order sorts by (eff, shard, index),
// markers removed.
func refMerge(streams []stream) []string {
	type ref struct {
		eff      uint64
		shard, i int
		it       Item
	}
	var all []ref
	for s, st := range streams {
		var eff uint64
		for i, it := range st {
			if it.TS > eff {
				eff = it.TS
			}
			all = append(all, ref{eff, s, i, it})
		}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].eff != all[b].eff {
			return all[a].eff < all[b].eff
		}
		if all[a].shard != all[b].shard {
			return all[a].shard < all[b].shard
		}
		return all[a].i < all[b].i
	})
	var out []string
	for _, r := range all {
		if !r.it.Marker {
			out = append(out, r.it.Payload.(string))
		}
	}
	return out
}

// drain pops everything currently releasable.
func drain(m *Merge, out *[]string) {
	for {
		it, _, ok := m.Pop()
		if !ok {
			return
		}
		*out = append(*out, it.Payload.(string))
	}
}

// TestMergeDeterministicAcrossInterleavings is the core determinism
// property: any real-time interleaving of per-shard pushes releases the
// exact reference order.
func TestMergeDeterministicAcrossInterleavings(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		shards := 2 + rng.Intn(4)
		streams := make([]stream, shards)
		for s := range streams {
			n := 1 + rng.Intn(12)
			var ts uint64
			for i := 0; i < n; i++ {
				// Arbitrary stamps, sometimes regressing (eff fixes that),
				// sometimes colliding across shards.
				if rng.Intn(3) == 0 && ts > 0 {
					ts -= uint64(rng.Intn(int(ts)) + 1)
				}
				ts += uint64(1 + rng.Intn(5))
				streams[s] = append(streams[s], Item{
					TS:      ts,
					Marker:  rng.Intn(5) == 0,
					Payload: fmt.Sprintf("s%d-%d", s, i),
				})
			}
			// Terminal marker far in the future so the merge can fully
			// drain (models the idle-marker liveness mechanism).
			streams[s] = append(streams[s], Item{TS: 1 << 40, Marker: true, Payload: "end"})
		}
		want := refMerge(streams)

		for inter := 0; inter < 5; inter++ {
			m := NewMerge(shards)
			next := make([]int, shards)
			var got []string
			for {
				live := live(streams, next)
				if len(live) == 0 {
					break
				}
				s := live[rng.Intn(len(live))]
				m.Push(s, streams[s][next[s]])
				next[s]++
				if rng.Intn(2) == 0 {
					drain(m, &got) // popping mid-stream must not change the order
				}
			}
			drain(m, &got)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d interleaving %d:\n got %v\nwant %v", trial, inter, got, want)
			}
		}
	}
}

func live(streams []stream, next []int) []int {
	var out []int
	for s := range streams {
		if next[s] < len(streams[s]) {
			out = append(out, s)
		}
	}
	return out
}

// TestMergeHoldsBackUntilCutAdvances: an item is not released while an
// idle shard could still sort before it, and a marker unblocks it.
func TestMergeHoldsBackUntilCutAdvances(t *testing.T) {
	m := NewMerge(2)
	m.Push(0, Item{TS: 5, Payload: "a"})
	if _, _, ok := m.Pop(); ok {
		t.Fatal("released while shard 1's cut was behind")
	}
	m.Push(1, Item{TS: 3, Marker: true})
	if _, _, ok := m.Pop(); ok {
		t.Fatal("marker at ts 3 cannot clear an item at ts 5")
	}
	m.Push(1, Item{TS: 9, Marker: true})
	it, s, ok := m.Pop()
	if !ok || s != 0 || it.Payload.(string) != "a" {
		t.Fatalf("marker at ts 9 should release a: %v %d %v", it, s, ok)
	}
	if _, _, ok := m.Pop(); ok {
		t.Fatal("nothing else should be releasable")
	}
	if m.Cut(1) != 9 {
		t.Fatalf("Cut(1) = %d, want 9", m.Cut(1))
	}
}

// TestMergeTieBreaksByShard: equal effective stamps release lower shard
// first, and an empty equal-stamp shard only blocks lower shards.
func TestMergeTieBreaksByShard(t *testing.T) {
	m := NewMerge(2)
	m.Push(0, Item{TS: 7, Payload: "zero"})
	m.Push(1, Item{TS: 7, Payload: "one"})
	it, s, ok := m.Pop()
	if !ok || s != 0 || it.Payload.(string) != "zero" {
		t.Fatalf("tie must release shard 0 first: %v %d %v", it, s, ok)
	}
	// Shard 1's head (7) is now blocked: shard 0 is empty with lastEff=7,
	// and shard 0 could still produce another ts-7 item sorting earlier.
	if _, _, ok := m.Pop(); ok {
		t.Fatal("shard 1 at ts 7 must wait for shard 0's cut to pass 7")
	}
	m.Push(0, Item{TS: 8, Marker: true})
	it, s, ok = m.Pop()
	if !ok || s != 1 || it.Payload.(string) != "one" {
		t.Fatalf("want shard 1's item: %v %d %v", it, s, ok)
	}
}

func TestMergePendingAndFIFOReuse(t *testing.T) {
	m := NewMerge(1)
	for i := 0; i < 1000; i++ {
		m.Push(0, Item{TS: uint64(i + 1), Payload: fmt.Sprintf("%d", i)})
		if it, _, ok := m.Pop(); !ok || it.Payload.(string) != fmt.Sprintf("%d", i) {
			t.Fatalf("single-shard merge must be FIFO at %d", i)
		}
	}
	if m.Pending() != 0 {
		t.Fatalf("Pending = %d after full drain", m.Pending())
	}
}

// partitionedMember replays one member's view of a partition on shard 0:
// a common prefix, then the member's own message stamped alone (delivered
// only in its singleton ring; nil for the other member), then a
// configuration c whose shard-0 stream both members deliver identically,
// floor announcements included. Shard 1 is common throughout, and its
// items are pushed after the shard-0 item at index shard1After, so the
// two members see different real-time interleavings. agree turns the
// floor agreement on. It returns the released payloads.
func partitionedMember(alone []Item, floors map[proto.NodeID]uint64, shard1After int, agree bool) (out []string, floor uint64) {
	c := proto.RingID{Rep: 1, Epoch: 9}
	m := NewMerge(2)
	shard1 := []Item{{TS: 2, Payload: "b0"}, {TS: 10, Payload: "b1"}, {TS: 60, Payload: "b2"}, {TS: 100, Marker: true}}
	push0 := []func(){
		func() { m.Push(0, Item{TS: 1, Payload: "a0"}) },
		func() {
			for _, it := range alone {
				m.Push(0, it)
			}
		},
		func() {
			if agree {
				floor = m.Begin(0, c, []proto.NodeID{1, 2})
			}
		},
		func() { m.Push(0, Item{TS: 3, Payload: "x1"}) },
		func() {
			if agree {
				m.Floor(0, c, 1, floors[1])
				m.Floor(0, c, 2, floors[2])
			}
		},
		func() { m.Push(0, Item{TS: 4, Payload: "x2"}) },
		func() { m.Push(0, Item{TS: 100, Marker: true}) },
	}
	drain := func() {
		for {
			it, _, ok := m.Pop()
			if !ok {
				return
			}
			out = append(out, it.Payload.(string))
		}
	}
	for i, f := range push0 {
		f()
		if i == shard1After {
			for _, it := range shard1 {
				m.Push(1, it)
			}
		}
		drain()
	}
	return out, floor
}

// common keeps the payloads both members delivered.
func common(seq []string) []string {
	var out []string
	for _, p := range seq {
		if p != "alone" {
			out = append(out, p)
		}
	}
	return out
}

// TestMergeFloorAgreementAfterPartition: member 1 delivered a message
// stamped 50 alone, in a singleton ring member 2 never saw. Without the
// floor agreement its running max carries 50 into the shared
// configuration and the two members order the messages they share
// differently; with it both raise the cut to the largest floor and agree.
func TestMergeFloorAgreementAfterPartition(t *testing.T) {
	alone := []Item{{TS: 50, Payload: "alone"}}
	// Each member's floor is its cut at Begin: read it off a first pass.
	_, f1 := partitionedMember(alone, nil, 0, true)
	_, f2 := partitionedMember(nil, nil, 0, true)
	if f1 != 50 || f2 != 1 {
		t.Fatalf("floors %d, %d; want 50 (member 1's singleton message) and 1", f1, f2)
	}
	floors := map[proto.NodeID]uint64{1: f1, 2: f2}

	plain1, _ := partitionedMember(alone, floors, 0, false)
	plain2, _ := partitionedMember(nil, floors, 5, false)
	if reflect.DeepEqual(common(plain1), common(plain2)) {
		t.Fatalf("without the floor agreement the members should disagree: %v vs %v", plain1, plain2)
	}
	for _, after := range []int{0, 3, 5} {
		got1, _ := partitionedMember(alone, floors, after, true)
		got2, _ := partitionedMember(nil, floors, 6-after, true)
		if !reflect.DeepEqual(common(got1), common(got2)) {
			t.Fatalf("interleaving %d: members disagree on the shared order: %v vs %v", after, got1, got2)
		}
		if len(common(got1)) != 6 {
			t.Fatalf("interleaving %d: released %v, want all six shared items", after, got1)
		}
	}
}

// TestMergeFloorCarriesBrokenConfiguration: an agreement whose
// configuration breaks before every floor is delivered does not settle;
// its held items ride into the next configuration's agreement, and this
// member's floor there covers their stamps.
func TestMergeFloorCarriesBrokenConfiguration(t *testing.T) {
	m := NewMerge(1)
	c1, c2 := proto.RingID{Rep: 1, Epoch: 1}, proto.RingID{Rep: 1, Epoch: 2}
	if floor := m.Begin(0, c1, []proto.NodeID{1, 2}); floor != 0 {
		t.Fatalf("first floor %d, want 0", floor)
	}
	m.Push(0, Item{TS: 30, Payload: "carried"})
	m.Floor(0, c1, 2, 40)
	m.Floor(0, c2, 1, 90) // another configuration's: ignored
	if _, _, ok := m.Pop(); ok || m.Pending() != 1 {
		t.Fatalf("released before the agreement settled (pending %d)", m.Pending())
	}
	// c1 broke with member 1's floor undelivered: its item is carried.
	if floor := m.Begin(0, c2, []proto.NodeID{1}); floor != 30 {
		t.Fatalf("floor with a carried item stamped 30 = %d, want 30", floor)
	}
	m.Push(0, Item{TS: 5, Payload: "after"})
	if _, _, ok := m.Pop(); ok {
		t.Fatal("released before c2's agreement settled")
	}
	m.Floor(0, c2, 1, 30)
	for _, want := range []string{"carried", "after"} {
		if it, _, ok := m.Pop(); !ok || it.Payload.(string) != want {
			t.Fatalf("want %q released once c2 settled: %v %v", want, it, ok)
		}
	}
	if m.Cut(0) != 30 {
		t.Fatalf("Cut after settling = %d, want the agreed floor 30", m.Cut(0))
	}
}
