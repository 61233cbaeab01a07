package main

import (
	"testing"
	"time"

	totem "github.com/totem-rrp/totem"
)

// The tap tells loss from wrong order: a seq ahead of the stream's next is
// messages lost at this node (counted, the workload reports them as failed),
// a seq behind it is a duplicate or a reordering (a violation).
func TestTapCountsLossAndFlagsWrongOrder(t *testing.T) {
	msg := func(stream, seq uint32) totem.Delivery {
		p := make([]byte, hdrLen)
		putHeader(p, 0, stream, seq)
		return totem.Delivery{Payload: p}
	}
	for _, tc := range []struct {
		name       string
		seqs       []uint32
		skipped    uint64
		violations int
	}{
		{"in order", []uint32{0, 1, 2, 3}, 0, 0},
		{"gap", []uint32{0, 1, 5, 6}, 3, 0},
		{"duplicate", []uint32{0, 1, 1, 2}, 0, 1},
		{"reordered", []uint32{0, 2, 1, 3}, 1, 1},
	} {
		tap := &nodeTap{epoch: time.Now(), sampleEvery: 16}
		for _, s := range tc.seqs {
			tap.tap(msg(1, s))
		}
		if tap.skipped != tc.skipped || tap.violations != tc.violations {
			t.Errorf("%s: skipped %d, violations %d (%s); want %d and %d",
				tc.name, tap.skipped, tap.violations, tap.firstBad, tc.skipped, tc.violations)
		}
	}
}
