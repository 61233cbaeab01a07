package core

import "github.com/totem-rrp/totem/internal/proto"

// This file implements the automatic-readmission subsystem: a per-network
// recovery monitor that turns the paper's operator-driven readmission (§3)
// into a self-healing loop.
//
// The observation channel is the paper's own invariant: a node never
// *sends* on a network it has declared faulty, but it keeps *receiving*
// from it. Whatever still arrives on a faulty network is therefore free
// evidence about its health. The monitor counts receptions per decay
// window; a window with at least one reception is "clean", and after
// ProbationWindows consecutive clean windows the network is readmitted,
// its monitors reset, and a FaultCleared report emitted.
//
// One amendment to pure passivity is required: once every node has
// convicted a network, nobody sends on it, so a fully healed network would
// stay silent — and faulty — forever. While a network is on probation,
// each node therefore duplicates a small, bounded number of its outgoing
// packets per window onto the faulty network ("probation probes").
// Duplicates are already harmless by construction: the SRP drops duplicate
// data packets via its sequence filter (requirement A1) and duplicate
// tokens via its (seq, rotation) token-key filter, and the active /
// active-passive token gates only count copies on non-faulty networks.
//
// Flap damping guards against oscillating links: a network that re-faults
// within FlapWindow of its last readmission has its next probation
// doubled, up to MaxProbation, so a link that dies and heals on a cycle
// converges to mostly-disabled instead of thrashing the token gating.
//
// All bookkeeping is in whole decay windows (integer window counters, no
// clock reads), which keeps the state machine deterministic and makes
// FlapWindow robust to any DecayInterval setting.

// recoveryProbesPerWindow bounds the duplicate sends per faulty network
// per decay window. Broadcast probes reach every peer, so a handful per
// window is ample evidence while keeping the overhead negligible.
const recoveryProbesPerWindow = 4

// recoveryState is the per-replicator bookkeeping of the recovery monitor.
type recoveryState struct {
	// windows counts decay ticks since start (monotonic virtual clock).
	windows uint64
	// lastRx snapshots stats.RxPackets at the last window boundary.
	lastRx []uint64
	// cleanWindows counts consecutive windows with receptions per network.
	cleanWindows []int
	// probation is the currently required clean-window run per network;
	// starts at ProbationWindows and doubles under flap damping.
	probation []int
	// lastClearWindow records the window of the last readmission.
	lastClearWindow []uint64
	// everCleared marks networks that have been readmitted at least once
	// (the zero value of lastClearWindow would otherwise look recent).
	everCleared []bool
	// graceUntil suppresses monitor convictions of a freshly readmitted
	// network until this window: peers readmit at slightly different
	// window phases, and until the slowest one does, the network
	// legitimately misses that peer's traffic.
	graceUntil []uint64
	// graceCap bounds how far discarded evidence may extend graceUntil:
	// twice the grace granted at readmission (see holdGrace).
	graceCap []uint64
	// probeBudget is the number of probe duplicates left this window.
	probeBudget []int
}

func newRecoveryState(cfg Config) recoveryState {
	n := cfg.Networks
	r := recoveryState{
		lastRx:          make([]uint64, n),
		cleanWindows:    make([]int, n),
		probation:       make([]int, n),
		lastClearWindow: make([]uint64, n),
		everCleared:     make([]bool, n),
		graceUntil:      make([]uint64, n),
		graceCap:        make([]uint64, n),
		probeBudget:     make([]int, n),
	}
	for i := range r.probation {
		r.probation[i] = cfg.ProbationWindows
	}
	return r
}

// flapWindows converts FlapWindow into whole decay windows (at least one).
func (b *base) flapWindows() uint64 {
	w := uint64(b.cfg.FlapWindow / b.cfg.DecayInterval)
	if w == 0 {
		w = 1
	}
	return w
}

// noteFault is called by markFaulty once network i is actually disabled.
// It opens the probation, applying exponential backoff when the fault is a
// flap (a re-fault shortly after the previous readmission).
func (b *base) noteFault(i int) {
	if !b.cfg.AutoReadmit {
		return
	}
	r := &b.rec
	if r.everCleared[i] && r.windows-r.lastClearWindow[i] <= b.flapWindows() {
		b.met.flapBackoffs.Inc()
		if r.probation[i] < b.cfg.MaxProbation {
			r.probation[i] *= 2
			if r.probation[i] > b.cfg.MaxProbation {
				r.probation[i] = b.cfg.MaxProbation
			}
		}
		b.acts.Probe(proto.ProbeFlapBackoff, i, int64(r.probation[i]), 0, 0)
	} else {
		r.probation[i] = b.cfg.ProbationWindows
	}
	r.cleanWindows[i] = 0
	r.lastRx[i] = b.met.rx[i].Count()
	r.probeBudget[i] = recoveryProbesPerWindow
}

// noteReadmitted resets the recovery bookkeeping when network i is
// readmitted, whether by the monitor or by an operator. The probation
// length is deliberately kept: only a clean (non-flap) re-fault resets it.
func (b *base) noteReadmitted(i int) {
	r := &b.rec
	r.lastClearWindow[i] = r.windows
	r.everCleared[i] = true
	r.cleanWindows[i] = 0
	r.probeBudget[i] = 0
	// Peer readmissions are skewed: each node's clean-window evidence
	// depends on what its peers send, and a peer that still excludes the
	// network from its send rotation holds the next node's readmission
	// back. Until the slowest peer readmits, the network legitimately
	// lags at everyone who already did, so the grace must outlast that
	// skew or the fast readmitters re-convict and the fault rolls around
	// the ring forever. Scaling the grace to the probation just served
	// makes the loop self-stabilising: a flap doubles the probation,
	// which doubles the next grace, until the grace covers the skew.
	grace := uint64(r.probation[i])
	if grace < 2 {
		grace = 2
	}
	r.graceUntil[i] = r.windows + grace
	r.graceCap[i] = r.windows + 2*grace
}

// holdGrace is inReadmitGrace for a monitor that is about to discard a
// threshold crossing on network i: while the grace holds, a discarded
// crossing also keeps it open for the next full window, up to twice the
// grace granted at readmission. Probations differ between peers — a
// restarted node's flap history starts over, and each node doubles its
// own — so a peer convicted together with this node may serve a longer
// probation and keep excluding the network past this node's grace. Its
// exclusion keeps producing crossings here, and a grace that expires
// under it re-convicts the network, which hands the flap on around the
// ring for good: every node's grace ends just before its predecessor's
// readmission. Held grace outlasts a peer one probation doubling ahead,
// and each flap doubles this node's own, so the loop dies out. A network
// that keeps failing (or a peer that never readmits it, like one that
// cannot receive on it) is still convicted at the cap.
func (b *base) holdGrace(i int) bool {
	if !b.inReadmitGrace(i) {
		return false
	}
	r := &b.rec
	r.graceUntil[i] = max(r.graceUntil[i], min(r.windows+2, r.graceCap[i]))
	return true
}

// inReadmitGrace reports whether network i was readmitted so recently
// that monitor evidence against it should be discarded.
func (b *base) inReadmitGrace(i int) bool {
	return b.cfg.AutoReadmit && b.rec.windows < b.rec.graceUntil[i]
}

// readmitCommon performs the style-independent half of a readmission:
// clear the flag, count it, update recovery state. Style Readmit methods
// call it after their own validation and before resetting their monitors.
func (b *base) readmitCommon(network int) {
	b.fault[network] = false
	b.met.readmits.Inc()
	b.noteReadmitted(network)
}

// probeSend duplicates one outgoing packet onto every faulty network that
// still has probe budget this window, so peers (and through their probes,
// this node) can observe whether the network has healed.
func (b *base) probeSend(dest proto.NodeID, data []byte) {
	if !b.cfg.AutoReadmit {
		return
	}
	for i := range b.fault {
		if b.fault[i] && b.rec.probeBudget[i] > 0 {
			b.rec.probeBudget[i]--
			b.met.probesSent.Inc()
			b.acts.Probe(proto.ProbeProbeSent, i, int64(b.rec.probeBudget[i]), 0, 0)
			b.send(i, dest, data)
		}
	}
}

// recoveryTick advances the monitor by one decay window. For every faulty
// network it classifies the elapsed window as clean (receptions arrived)
// or silent, and readmits the network once its probation is served via
// readmit (the calling style's Readmit method, which resets that style's
// health monitors). It must be called from every style's decay handler.
func (b *base) recoveryTick(now proto.Time, readmit func(network int)) {
	r := &b.rec
	r.windows++
	if !b.cfg.AutoReadmit {
		return
	}
	for i := 0; i < b.cfg.Networks; i++ {
		if !b.fault[i] {
			// Keep the snapshot fresh so a fault opening mid-window only
			// counts receptions from roughly the fault onward.
			r.lastRx[i] = b.met.rx[i].Count()
			continue
		}
		delta := b.met.rx[i].Count() - r.lastRx[i]
		r.lastRx[i] = b.met.rx[i].Count()
		if delta == 0 {
			r.cleanWindows[i] = 0
		} else {
			r.cleanWindows[i]++
		}
		b.acts.Probe(proto.ProbeProbation, i, int64(r.cleanWindows[i]), int64(r.probation[i]), 0)
		if r.cleanWindows[i] >= r.probation[i] {
			served := r.probation[i]
			readmit(i)
			b.met.faultsCleared.Inc()
			b.acts.FaultCleared(proto.ClearReport{Network: i, Probation: served, Time: now})
			continue
		}
		r.probeBudget[i] = recoveryProbesPerWindow
	}
}
