package sim

import "time"

// Scripted, time-driven fault schedules layered on the primitive fault
// injectors. These model the messy failure shapes of production networks —
// links that oscillate, switches that shed packets in bursts, and optics
// that degrade gradually — and drive the recovery-monitor scenarios in the
// tests.

// ScheduleFlap makes network i oscillate: starting now, it goes down for
// downFor, up for upFor, repeated cycles times (a final revive is always
// scheduled, so the network ends the script healthy). This is the
// flap-damping torture test: every heal invites readmission and every
// re-death should double the probation.
func (c *Cluster) ScheduleFlap(i int, downFor, upFor time.Duration, cycles int) {
	at := time.Duration(0)
	for n := 0; n < cycles; n++ {
		c.Sim.After(at, func() { c.KillNetwork(i) })
		c.Sim.After(at+downFor, func() { c.ReviveNetwork(i) })
		at += downFor + upFor
	}
}

// ScheduleLossBursts injects count intermittent loss bursts on network i:
// every burst sets the loss probability to p for burst, then restores it
// to zero for gap. Sporadic bursts below the monitor thresholds must
// neither convict a network nor disturb an ongoing probation permanently.
func (c *Cluster) ScheduleLossBursts(i int, p float64, burst, gap time.Duration, count int) {
	at := time.Duration(0)
	for n := 0; n < count; n++ {
		c.Sim.After(at, func() { c.SetLoss(i, p) })
		c.Sim.After(at+burst, func() { c.SetLoss(i, 0) })
		at += burst + gap
	}
}

// ScheduleSlowDegrade ramps the loss probability of network i upward by
// step every interval until it reaches max, modelling failing hardware
// rather than a clean cut. The monitors should convict the network
// somewhere along the ramp; healing it afterwards is a single SetLoss(i, 0).
func (c *Cluster) ScheduleSlowDegrade(i int, step float64, interval time.Duration, max float64) {
	var ramp func(p float64)
	ramp = func(p float64) {
		if p > max {
			p = max
		}
		c.SetLoss(i, p)
		if p < max {
			c.Sim.After(interval, func() { ramp(p + step) })
		}
	}
	c.Sim.After(interval, func() { ramp(step) })
}
