package core

import (
	"strconv"

	"github.com/totem-rrp/totem/internal/metrics"
)

// coreCounters holds the RRP layer's resolved metric handles (names under
// "rrp.").
type coreCounters struct {
	tx, rx          []*metrics.Counter // per network
	tokensGated     *metrics.Counter
	tokensTimedOut  *metrics.Counter
	tokensDiscarded *metrics.Counter
	faultsRaised    *metrics.Counter
	faultsCleared   *metrics.Counter
	readmits        *metrics.Counter
	flapBackoffs    *metrics.Counter
	probesSent      *metrics.Counter
}

// newCoreCounters resolves the RRP metric names in reg.
func newCoreCounters(reg *metrics.Registry, networks int) coreCounters {
	c := coreCounters{
		tx:              make([]*metrics.Counter, networks),
		rx:              make([]*metrics.Counter, networks),
		tokensGated:     reg.Counter("rrp.tokens_gated"),
		tokensTimedOut:  reg.Counter("rrp.tokens_timed_out"),
		tokensDiscarded: reg.Counter("rrp.tokens_discarded"),
		faultsRaised:    reg.Counter("rrp.faults_raised"),
		faultsCleared:   reg.Counter("rrp.faults_cleared"),
		readmits:        reg.Counter("rrp.readmits"),
		flapBackoffs:    reg.Counter("rrp.flap_backoffs"),
		probesSent:      reg.Counter("rrp.probes_sent"),
	}
	for i := 0; i < networks; i++ {
		prefix := "rrp.net" + strconv.Itoa(i)
		c.tx[i] = reg.Counter(prefix + ".tx_packets")
		c.rx[i] = reg.Counter(prefix + ".rx_packets")
	}
	return c
}
