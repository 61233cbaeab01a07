// Package core implements the Totem Redundant Ring Protocol (RRP) — the
// paper's primary contribution: a replication layer inserted between the
// Totem SRP and N redundant local-area networks.
//
// The layer decides which network(s) carry each message and token
// (replication styles: active §5, passive §6, active-passive §7), gates
// tokens so that retransmissions are never triggered by cross-network
// reordering (requirements A2/P1) and networks stay synchronised (A3/P2),
// guarantees progress under loss via token timers (A4/P3), and monitors
// network health locally — raising fault reports without ever probing the
// network (A5/A6, P4/P5, §3).
package core

import (
	"errors"
	"fmt"
	"time"

	"github.com/totem-rrp/totem/internal/metrics"
	"github.com/totem-rrp/totem/internal/proto"
)

// Callbacks connect a replicator to the SRP machine above it.
type Callbacks struct {
	// Deliver hands one packet up to the SRP. The replicator controls
	// ordering: e.g. passive replication delivers a buffered token right
	// after the message that filled the last gap (paper Fig. 4).
	Deliver func(now proto.Time, data []byte)
	// Missing reports whether the SRP is still missing any packet with a
	// sequence number at or below seq (passive replication's
	// anyMessagesMissing check).
	Missing func(seq uint32) bool
}

// Replicator is the RRP layer interface. Implementations are pure state
// machines: sends are emitted as proto.SendPacket actions, timers via
// SetTimer, fault reports via Fault.
type Replicator interface {
	// Start arms the periodic monitor-decay timer.
	Start(now proto.Time)
	// SendMessage maps one SRP broadcast onto the networks. The packet is
	// encoded exactly once: every emitted SendPacket action references the
	// same read-only data slice, and the replicator retains no reference
	// after returning, so the caller's buffer ownership passes intact to
	// the driver (which may pool KindData frames; see wire.PutFrame).
	SendMessage(data []byte)
	// SendToken maps one SRP token unicast onto the networks. Unlike
	// messages, token buffers may be retained by the replicator (passive
	// replication holds the last token for gating) and by the SRP for
	// retransmission, so they must not come from the frame pool.
	SendToken(dest proto.NodeID, data []byte)
	// OnPacket processes a packet received on the given network,
	// delivering upward through the callbacks as appropriate.
	OnPacket(now proto.Time, network int, data []byte)
	// OnTimer handles an RRP timer expiry.
	OnTimer(now proto.Time, id proto.TimerID)
	// Faulty returns a copy of the per-network fault flags.
	Faulty() []bool
	// Readmit clears the faulty verdict on a repaired network (the
	// administrator's action after reacting to the alarm, paper §3). The
	// monitors restart from a clean slate for that network.
	Readmit(network int)
	// Style identifies the replication style.
	Style() proto.ReplicationStyle
}

// Config parameterises a replicator.
type Config struct {
	// Networks is N, the number of redundant networks (>= 1).
	Networks int
	// Style selects the replication style.
	Style proto.ReplicationStyle
	// K is the number of copies for active-passive replication
	// (1 < K < Networks).
	K int

	// TokenTimeout bounds the wait for the remaining token copies in
	// active and active-passive replication (requirement A4).
	TokenTimeout time.Duration
	// TokenHold bounds how long passive replication buffers a token while
	// messages are outstanding (paper §6 uses 10 ms).
	TokenHold time.Duration
	// ProblemThreshold is the active-replication problem-counter limit
	// beyond which a network is declared faulty (requirement A5).
	ProblemThreshold int
	// DiffThreshold is the passive-replication message-monitor limit on
	// the difference between per-network reception counts (requirement
	// P4).
	DiffThreshold int
	// TokenDiffThreshold is the same limit for the token monitor. Tokens
	// arrive once per rotation, so a much smaller threshold detects a
	// dead network before the token-loss timer can fire, while remaining
	// far above any plausible sporadic loss within one decay period.
	TokenDiffThreshold int
	// DecayInterval drives the periodic problem-counter decay (active)
	// and lagging-counter replenishment (passive), preventing sporadic
	// loss from accumulating into a false fault (requirements A6/P5).
	DecayInterval time.Duration

	// AutoReadmit enables the recovery monitor: a faulty network that
	// shows clean receptions for ProbationWindows consecutive decay
	// windows is readmitted automatically and a FaultCleared report is
	// emitted. When false, readmission stays a purely manual operator
	// action (the paper's §3 model).
	AutoReadmit bool
	// ProbationWindows is the number of consecutive decay windows with
	// receptions a faulty network must serve before automatic readmission.
	ProbationWindows int
	// FlapWindow bounds flap detection: a network that re-faults within
	// FlapWindow of its last readmission has its next probation doubled.
	FlapWindow time.Duration
	// MaxProbation caps the exponential probation growth, in decay
	// windows; a persistently flapping network converges to spending
	// MaxProbation windows disabled between (rare) readmissions.
	MaxProbation int

	// Metrics, when non-nil, is the registry the replicator registers its
	// counters in (names under "rrp."). Nil gets a private registry.
	Metrics *metrics.Registry
}

// DefaultConfig returns the defaults from DESIGN.md §6.
func DefaultConfig(networks int, style proto.ReplicationStyle) Config {
	return Config{
		Networks:           networks,
		Style:              style,
		K:                  2,
		TokenTimeout:       5 * time.Millisecond,
		TokenHold:          10 * time.Millisecond,
		ProblemThreshold:   10,
		DiffThreshold:      50,
		TokenDiffThreshold: 8,
		DecayInterval:      time.Second,
		AutoReadmit:        true,
		ProbationWindows:   3,
		FlapWindow:         10 * time.Second,
		MaxProbation:       60,
	}
}

// Configuration errors.
var (
	ErrBadNetworks = errors.New("core: invalid network count for style")
	ErrBadStyle    = errors.New("core: unknown replication style")
	ErrBadK        = errors.New("core: active-passive requires 1 < K < N")
	ErrBadTimer    = errors.New("core: timer intervals must be positive")
	ErrBadReadmit  = errors.New("core: invalid auto-readmit parameters")
)

// Validate checks the configuration.
func (c Config) Validate() error {
	if !c.Style.Valid() {
		return ErrBadStyle
	}
	switch c.Style {
	case proto.ReplicationNone:
		if c.Networks < 1 {
			return fmt.Errorf("%w: need >= 1, have %d", ErrBadNetworks, c.Networks)
		}
	case proto.ReplicationActive, proto.ReplicationPassive:
		if c.Networks < 2 {
			return fmt.Errorf("%w: %v needs >= 2, have %d", ErrBadNetworks, c.Style, c.Networks)
		}
	case proto.ReplicationActivePassive:
		if c.Networks < 3 {
			// Paper §7: active-passive needs at least three networks.
			return fmt.Errorf("%w: active-passive needs >= 3, have %d", ErrBadNetworks, c.Networks)
		}
		if c.K <= 1 || c.K >= c.Networks {
			return fmt.Errorf("%w: K=%d, N=%d", ErrBadK, c.K, c.Networks)
		}
	}
	if c.TokenTimeout <= 0 || c.TokenHold <= 0 || c.DecayInterval <= 0 {
		return ErrBadTimer
	}
	if c.ProblemThreshold <= 0 || c.DiffThreshold <= 0 || c.TokenDiffThreshold <= 0 {
		return fmt.Errorf("%w: thresholds must be positive", ErrBadTimer)
	}
	if c.AutoReadmit {
		if c.ProbationWindows <= 0 {
			return fmt.Errorf("%w: ProbationWindows must be positive with AutoReadmit", ErrBadReadmit)
		}
		if c.MaxProbation < c.ProbationWindows {
			return fmt.Errorf("%w: MaxProbation %d < ProbationWindows %d", ErrBadReadmit, c.MaxProbation, c.ProbationWindows)
		}
		if c.FlapWindow <= 0 {
			return fmt.Errorf("%w: FlapWindow must be positive with AutoReadmit", ErrBadReadmit)
		}
	}
	return nil
}

// New builds the replicator for cfg.Style.
func New(cfg Config, acts *proto.Actions, cb Callbacks) (Replicator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if acts == nil || cb.Deliver == nil || cb.Missing == nil {
		return nil, errors.New("core: nil action buffer or callbacks")
	}
	switch cfg.Style {
	case proto.ReplicationNone:
		return newNone(cfg, acts, cb), nil
	case proto.ReplicationActive:
		return newActive(cfg, acts, cb), nil
	case proto.ReplicationPassive:
		return newPassive(cfg, acts, cb), nil
	case proto.ReplicationActivePassive:
		return newActivePassive(cfg, acts, cb), nil
	default:
		return nil, ErrBadStyle
	}
}

// base carries the state shared by every replicator: fault flags, traffic
// counters and the declare-faulty rule. A node never sends on a network it
// has marked faulty but keeps accepting from it (paper §3); the last
// non-faulty network is never marked, since the protocol cannot operate
// with zero networks — the monitor keeps reporting instead.
type base struct {
	cfg   Config
	acts  *proto.Actions
	cb    Callbacks
	fault []bool
	met   coreCounters
	rec   recoveryState
}

func newBase(cfg Config, acts *proto.Actions, cb Callbacks) base {
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return base{
		cfg:   cfg,
		acts:  acts,
		cb:    cb,
		fault: make([]bool, cfg.Networks),
		met:   newCoreCounters(reg, cfg.Networks),
		rec:   newRecoveryState(cfg),
	}
}

// Faulty implements part of Replicator.
func (b *base) Faulty() []bool {
	return append([]bool(nil), b.fault...)
}

// nonFaultyCount returns the number of usable networks.
func (b *base) nonFaultyCount() int {
	n := 0
	for _, f := range b.fault {
		if !f {
			n++
		}
	}
	return n
}

// markFaulty declares network i faulty and raises a fault report, unless
// it is the last usable network.
func (b *base) markFaulty(now proto.Time, i int, reason string) {
	if b.fault[i] {
		return
	}
	if b.inReadmitGrace(i) {
		// A freshly readmitted network misses the traffic of peers whose
		// own readmission lags by a window; convicting it again on that
		// evidence would be a spurious flap. Genuine faults re-raise as
		// soon as the grace expires.
		return
	}
	if b.nonFaultyCount() <= 1 {
		// Refusing to disable the last network keeps the system up; the
		// operator still gets the alarm.
		b.acts.Fault(proto.FaultReport{
			Network: i,
			Reason:  reason + " (last usable network: not disabled)",
			Time:    now,
		})
		return
	}
	b.fault[i] = true
	b.met.faultsRaised.Inc()
	b.acts.Fault(proto.FaultReport{Network: i, Reason: reason, Time: now})
	b.noteFault(i)
}

// send transmits on network i and counts it. The same data slice is
// shared by every network's SendPacket action — fan-out never copies.
func (b *base) send(network int, dest proto.NodeID, data []byte) {
	b.acts.Send(network, dest, data)
	b.met.tx[network].Inc()
}
