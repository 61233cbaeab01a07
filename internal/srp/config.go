// Package srp implements the Totem Single Ring Protocol (Amir et al., ACM
// TOCS 1995; summarised in §2 of the RRP paper): reliable totally-ordered
// broadcast on a logical token-passing ring, with retransmission driven by
// a token-borne request list, flow control via the token's fcc/backlog
// fields, message packing and fragmentation, token-loss fault detection,
// and a membership protocol (Gather → Commit → Recovery) providing
// extended-virtual-synchrony-style configuration changes.
//
// The Machine type is a pure, single-threaded state machine: all inputs
// carry an explicit timestamp and all outputs are emitted as proto.Actions
// plus sends through the Outbound interface (implemented by the RRP layer,
// which maps them onto the redundant networks).
package srp

import (
	"errors"
	"fmt"
	"time"

	"github.com/totem-rrp/totem/internal/metrics"
	"github.com/totem-rrp/totem/internal/proto"
)

// DeliveryMode selects the delivery guarantee.
type DeliveryMode int

// Delivery modes.
const (
	// DeliverAgreed delivers a message once all prior messages in the
	// total order have been received (Totem "agreed" delivery).
	DeliverAgreed DeliveryMode = iota + 1
	// DeliverSafe additionally waits until the token's all-received-up-to
	// has covered the message on two consecutive visits, guaranteeing
	// every member holds it (Totem "safe" delivery).
	DeliverSafe
)

// String implements fmt.Stringer.
func (m DeliveryMode) String() string {
	switch m {
	case DeliverAgreed:
		return "agreed"
	case DeliverSafe:
		return "safe"
	default:
		return fmt.Sprintf("DeliveryMode(%d)", int(m))
	}
}

// Config parameterises one SRP machine.
type Config struct {
	// ID is this node's identifier; it must be non-zero and unique.
	ID proto.NodeID

	// Delivery selects agreed or safe delivery. Default DeliverAgreed.
	Delivery DeliveryMode

	// WindowSize is the global flow-control window: the maximum number of
	// packets broadcast ring-wide per token rotation, and also the bound
	// on packets in flight beyond the all-received-up-to horizon.
	WindowSize int
	// MaxPerVisit caps the packets one node may broadcast per token visit.
	MaxPerVisit int
	// MaxQueued caps the application send queue (messages); Submit
	// rejects beyond it.
	MaxQueued int

	// BulkMaxPerVisit caps bulk-only packets (packets carrying nothing but
	// bulk-lane chunks) broadcast per token visit; interactive and mixed
	// packets are not charged against it. Zero selects the default.
	BulkMaxPerVisit int
	// BulkYieldPerVisit replaces BulkMaxPerVisit whenever other members
	// report queued interactive traffic in the token backlog, so a
	// saturating transfer yields the window to latency-sensitive traffic.
	// Zero selects the default; it must not exceed BulkMaxPerVisit.
	BulkYieldPerVisit int
	// MaxBulkTransfer bounds a single inbound transfer's announced length
	// in bytes; larger announcements are dropped without allocation. Zero
	// selects the default.
	MaxBulkTransfer int

	// TokenLossTimeout starts the membership protocol when no token
	// arrives for this long (paper §2).
	TokenLossTimeout time.Duration
	// TokenRetransmitInterval re-sends the last token until evidence of
	// its reception arrives (paper §2).
	TokenRetransmitInterval time.Duration
	// JoinInterval re-broadcasts the join message during Gather.
	JoinInterval time.Duration
	// ConsensusTimeout bounds Gather before silent nodes are declared
	// failed.
	ConsensusTimeout time.Duration
	// CommitRetransmitInterval re-sends the commit token until evidence
	// arrives.
	CommitRetransmitInterval time.Duration
	// MergeDetectInterval is how often an operational ring's
	// representative broadcasts a merge-detect packet so that rings
	// separated by a healed partition find each other.
	MergeDetectInterval time.Duration
	// IdleTokenHold, when positive, makes the representative hold the
	// token briefly on a completely idle ring instead of spinning it at
	// full speed (CPU courtesy for real-time deployments; zero disables,
	// which the simulator and benchmarks use).
	IdleTokenHold time.Duration

	// SeqRollover is the enforced sequence-space limit: when the ring's
	// sequence number reaches it, the representative abandons the ring and
	// reforms it (new epoch, sequence numbers restart at zero) instead of
	// letting uint32 sequence comparisons wrap at 2³². The overshoot past
	// the limit is bounded by WindowSize (flow control caps in-flight
	// packets), so with the default of 2³¹ every comparison in the machine
	// stays wrap-free by a factor of two. Zero selects the default; tests
	// use tiny values to exercise rollover in seconds instead of days.
	SeqRollover uint32
	// InitialEpoch seeds the machine's highest-known ring epoch, so a
	// restarted node never mints a RingID it already used in an earlier
	// incarnation (Totem keeps this on stable storage; drivers that model
	// restart pass the pre-crash value here).
	InitialEpoch uint32

	// Metrics, when non-nil, is the registry the machine registers its
	// counters in (names under "srp."). Nil gets a private registry.
	Metrics *metrics.Registry
}

// DefaultConfig returns the defaults used throughout the repository; they
// are scaled for the simulated 100 Mbit/s LANs of the evaluation.
func DefaultConfig(id proto.NodeID) Config {
	return Config{
		ID:                       id,
		Delivery:                 DeliverAgreed,
		WindowSize:               80,
		MaxPerVisit:              20,
		MaxQueued:                1024,
		BulkMaxPerVisit:          DefaultBulkMaxPerVisit,
		BulkYieldPerVisit:        DefaultBulkYieldPerVisit,
		MaxBulkTransfer:          DefaultMaxBulkTransfer,
		TokenLossTimeout:         100 * time.Millisecond,
		TokenRetransmitInterval:  6 * time.Millisecond,
		JoinInterval:             60 * time.Millisecond,
		ConsensusTimeout:         250 * time.Millisecond,
		CommitRetransmitInterval: 30 * time.Millisecond,
		MergeDetectInterval:      200 * time.Millisecond,
		SeqRollover:              DefaultSeqRollover,
	}
}

// DefaultSeqRollover is the sequence-space limit applied when
// Config.SeqRollover is zero: half the uint32 range, leaving the entire
// upper half as guard band for the bounded WindowSize overshoot.
const DefaultSeqRollover = uint32(1) << 31

// Bulk-lane defaults, applied when the corresponding Config field is zero.
const (
	// DefaultBulkMaxPerVisit: half the interactive MaxPerVisit default —
	// an uncontended transfer still moves ~14 KB of chunks per visit.
	DefaultBulkMaxPerVisit = 10
	// DefaultBulkYieldPerVisit keeps a trickle of bulk progress even under
	// sustained interactive load, preventing transfer starvation.
	DefaultBulkYieldPerVisit = 2
	// DefaultMaxBulkTransfer bounds one transfer to 64 MiB.
	DefaultMaxBulkTransfer = 64 << 20
)

// Validation errors.
var (
	ErrBadID     = errors.New("srp: node ID must be non-zero")
	ErrBadConfig = errors.New("srp: invalid configuration")
)

// Validate checks the configuration, applying no defaults.
func (c Config) Validate() error {
	if c.ID == 0 {
		return ErrBadID
	}
	if c.Delivery != DeliverAgreed && c.Delivery != DeliverSafe {
		return fmt.Errorf("%w: delivery mode %v", ErrBadConfig, c.Delivery)
	}
	if c.WindowSize <= 0 || c.MaxPerVisit <= 0 || c.MaxQueued <= 0 {
		return fmt.Errorf("%w: window/visit/queue sizes must be positive", ErrBadConfig)
	}
	if c.MaxPerVisit > c.WindowSize {
		return fmt.Errorf("%w: MaxPerVisit %d exceeds WindowSize %d", ErrBadConfig, c.MaxPerVisit, c.WindowSize)
	}
	if c.BulkMaxPerVisit < 0 || c.BulkYieldPerVisit < 0 || c.MaxBulkTransfer < 0 {
		return fmt.Errorf("%w: bulk-lane knobs must be non-negative (zero selects the default)", ErrBadConfig)
	}
	if c.BulkMaxPerVisit > 0 && c.BulkYieldPerVisit > c.BulkMaxPerVisit {
		return fmt.Errorf("%w: BulkYieldPerVisit %d exceeds BulkMaxPerVisit %d", ErrBadConfig, c.BulkYieldPerVisit, c.BulkMaxPerVisit)
	}
	for _, d := range []time.Duration{
		c.TokenLossTimeout, c.TokenRetransmitInterval, c.JoinInterval,
		c.ConsensusTimeout, c.CommitRetransmitInterval, c.MergeDetectInterval,
	} {
		if d <= 0 {
			return fmt.Errorf("%w: all timeouts must be positive", ErrBadConfig)
		}
	}
	if c.TokenRetransmitInterval >= c.TokenLossTimeout {
		return fmt.Errorf("%w: token retransmit interval must be below token loss timeout", ErrBadConfig)
	}
	if c.SeqRollover != 0 {
		if c.SeqRollover > DefaultSeqRollover {
			return fmt.Errorf("%w: SeqRollover %d exceeds %d, eroding the wraparound guard band", ErrBadConfig, c.SeqRollover, DefaultSeqRollover)
		}
		if c.SeqRollover < 4*uint32(c.WindowSize) {
			return fmt.Errorf("%w: SeqRollover %d below 4*WindowSize would reform the ring continuously", ErrBadConfig, c.SeqRollover)
		}
	}
	return nil
}
