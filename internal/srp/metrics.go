package srp

import "github.com/totem-rrp/totem/internal/metrics"

// counters holds the machine's resolved metric handles. Machines bump
// these directly (one atomic add, no map lookup, no allocation); every
// consumer reads the same counters through the registry.
type counters struct {
	tokensReceived   *metrics.Counter
	tokensSent       *metrics.Counter
	tokenRetransmits *metrics.Counter
	packetsSent      *metrics.Counter
	packetsReceived  *metrics.Counter
	duplicates       *metrics.Counter
	retransmissions  *metrics.Counter
	retransRequested *metrics.Counter
	msgsDelivered    *metrics.Counter
	bytesDelivered   *metrics.Counter
	submitted        *metrics.Counter
	submitRejected   *metrics.Counter
	tokenLosses      *metrics.Counter
	configChanges    *metrics.Counter
	// reassemblyDropped counts fragments the assemblers discarded: a
	// continuation with no start, or a prefix abandoned by a fresh start.
	reassemblyDropped *metrics.Counter

	// Bulk lane.
	bulkSubmitted   *metrics.Counter
	bulkRejected    *metrics.Counter
	bulkChunksAcked *metrics.Counter
	bulkRxCompleted *metrics.Counter
	bulkRxDropped   *metrics.Counter
}

// newCounters resolves the SRP metric names in reg.
func newCounters(reg *metrics.Registry) counters {
	c := func(name string) *metrics.Counter { return reg.Counter("srp." + name) }
	return counters{
		tokensReceived:    c("tokens_received"),
		tokensSent:        c("tokens_sent"),
		tokenRetransmits:  c("token_retransmits"),
		packetsSent:       c("packets_sent"),
		packetsReceived:   c("packets_received"),
		duplicates:        c("duplicates"),
		retransmissions:   c("retransmissions"),
		retransRequested:  c("retrans_requested"),
		msgsDelivered:     c("msgs_delivered"),
		bytesDelivered:    c("bytes_delivered"),
		submitted:         c("submitted"),
		submitRejected:    c("submit_rejected"),
		tokenLosses:       c("token_losses"),
		configChanges:     c("config_changes"),
		reassemblyDropped: c("reassembly_dropped"),
		bulkSubmitted:     c("bulk_submitted"),
		bulkRejected:      c("bulk_rejected"),
		bulkChunksAcked:   c("bulk_chunks_acked"),
		bulkRxCompleted:   c("bulk_rx_completed"),
		bulkRxDropped:     c("bulk_rx_dropped"),
	}
}
