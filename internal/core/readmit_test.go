package core

import (
	"testing"

	"github.com/totem-rrp/totem/internal/proto"
)

// drainClears extracts FaultCleared reports (dropping all other actions,
// like the sibling drain helpers).
func (r *recorder) drainClears() []proto.ClearReport {
	var out []proto.ClearReport
	for _, a := range r.acts.Drain() {
		if c, ok := a.(proto.FaultCleared); ok {
			out = append(out, c.Report)
		}
	}
	return out
}

// decay fires one RRP decay timer, advancing the recovery monitor by one
// window.
func decay(a *active) {
	a.OnTimer(0, proto.TimerID{Class: proto.TimerRRPDecay})
}

// cleanWindow simulates one decay window in which network net received
// traffic: a few receptions, then the window boundary.
func cleanWindow(t *testing.T, a *active, net int, seq *uint32) {
	t.Helper()
	for i := 0; i < 3; i++ {
		*seq++
		a.OnPacket(0, net, dataBytes(t, 2, *seq))
	}
	decay(a)
}

// convict marks network net faulty through the regular conviction path.
func convict(t *testing.T, a *active, net int) {
	t.Helper()
	a.markFaulty(0, net, "test conviction")
	if !a.fault[net] {
		t.Fatalf("network %d not convicted", net)
	}
}

func TestAutoReadmitAfterCleanProbation(t *testing.T) {
	rec := &recorder{}
	a := newActiveForTest(t, rec, 2)
	convict(t, a, 1)
	rec.acts.Drain()

	var seq uint32
	for w := 0; w < a.cfg.ProbationWindows-1; w++ {
		cleanWindow(t, a, 1, &seq)
		if !a.fault[1] {
			t.Fatalf("readmitted after only %d clean windows", w+1)
		}
	}
	cleanWindow(t, a, 1, &seq)
	if a.fault[1] {
		t.Fatal("network not readmitted after serving its probation")
	}
	clears := rec.drainClears()
	if len(clears) != 1 || clears[0].Network != 1 || clears[0].Probation != a.cfg.ProbationWindows {
		t.Fatalf("clears = %v, want one for network 1 after %d windows", clears, a.cfg.ProbationWindows)
	}
	if m := a.met; m.faultsCleared.Count() != 1 || m.readmits.Count() != 1 || m.flapBackoffs.Count() != 0 {
		t.Fatalf("counters = cleared %d readmits %d flaps %d", m.faultsCleared.Count(), m.readmits.Count(), m.flapBackoffs.Count())
	}
}

func TestSilentWindowRestartsProbation(t *testing.T) {
	rec := &recorder{}
	a := newActiveForTest(t, rec, 2)
	convict(t, a, 1)

	var seq uint32
	// Two clean windows, then silence: the consecutive-run requirement
	// starts over.
	cleanWindow(t, a, 1, &seq)
	cleanWindow(t, a, 1, &seq)
	decay(a)
	cleanWindow(t, a, 1, &seq)
	cleanWindow(t, a, 1, &seq)
	if !a.fault[1] {
		t.Fatal("readmitted without consecutive clean windows")
	}
	cleanWindow(t, a, 1, &seq)
	if a.fault[1] {
		t.Fatal("not readmitted after a full consecutive run")
	}
}

// passGrace advances past the post-readmission grace (scaled to the
// probation just served) so the next conviction is not discarded as
// readmission skew.
func passGrace(a *active) {
	for a.inReadmitGrace(1) {
		decay(a)
	}
}

func TestFlapDoublesProbation(t *testing.T) {
	rec := &recorder{}
	a := newActiveForTest(t, rec, 2)
	var seq uint32

	serve := func(want int) {
		t.Helper()
		for w := 0; w < want-1; w++ {
			cleanWindow(t, a, 1, &seq)
			if !a.fault[1] {
				t.Fatalf("readmitted after %d of %d required windows", w+1, want)
			}
		}
		cleanWindow(t, a, 1, &seq)
		if a.fault[1] {
			t.Fatalf("not readmitted after %d clean windows", want)
		}
		clears := rec.drainClears()
		if len(clears) != 1 || clears[0].Probation != want {
			t.Fatalf("clears = %v, want probation %d", clears, want)
		}
	}

	convict(t, a, 1)
	serve(a.cfg.ProbationWindows) // 3
	passGrace(a)
	convict(t, a, 1)                  // re-fault within the flap window
	serve(2 * a.cfg.ProbationWindows) // 6
	passGrace(a)
	convict(t, a, 1)
	serve(4 * a.cfg.ProbationWindows) // 12
	if got := a.met.flapBackoffs.Count(); got != 2 {
		t.Fatalf("FlapBackoffs = %d, want 2", got)
	}
}

func TestFlapProbationCapsAtMaxProbation(t *testing.T) {
	rec := &recorder{}
	cfg := DefaultConfig(2, proto.ReplicationActive)
	cfg.ProbationWindows = 2
	cfg.MaxProbation = 5
	rep, err := New(cfg, &rec.acts, rec.callbacks())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	a := rep.(*active)
	var seq uint32

	serve := func() int {
		t.Helper()
		for w := 0; w < cfg.MaxProbation+1; w++ {
			cleanWindow(t, a, 1, &seq)
			if !a.fault[1] {
				clears := rec.drainClears()
				if len(clears) != 1 {
					t.Fatalf("clears = %v", clears)
				}
				return clears[0].Probation
			}
		}
		t.Fatal("network never readmitted")
		return 0
	}

	convict(t, a, 1)
	want := []int{2, 4, 5, 5} // doubling clamps at MaxProbation and stays
	for i, w := range want {
		if got := serve(); got != w {
			t.Fatalf("flap %d: probation %d, want %d", i, got, w)
		}
		passGrace(a)
		convict(t, a, 1)
	}
}

func TestCalmRefaultResetsProbation(t *testing.T) {
	rec := &recorder{}
	a := newActiveForTest(t, rec, 2)
	var seq uint32

	serve := func() int {
		t.Helper()
		for a.fault[1] {
			cleanWindow(t, a, 1, &seq)
		}
		clears := rec.drainClears()
		if len(clears) != 1 {
			t.Fatalf("clears = %v", clears)
		}
		return clears[0].Probation
	}

	convict(t, a, 1)
	serve()
	passGrace(a)
	convict(t, a, 1) // flap: probation doubles
	if got := serve(); got != 2*a.cfg.ProbationWindows {
		t.Fatalf("flap probation = %d", got)
	}
	// A long healthy stretch (beyond FlapWindow) before the next fault:
	// the backoff is forgiven and probation returns to the baseline.
	flapW := int(a.cfg.FlapWindow/a.cfg.DecayInterval) + 1
	for w := 0; w < flapW; w++ {
		decay(a)
	}
	convict(t, a, 1)
	if got := serve(); got != a.cfg.ProbationWindows {
		t.Fatalf("post-calm probation = %d, want baseline %d", got, a.cfg.ProbationWindows)
	}
}

func TestProbationProbesAreBoundedPerWindow(t *testing.T) {
	rec := &recorder{}
	a := newActiveForTest(t, rec, 2)
	convict(t, a, 1)
	rec.acts.Drain()

	var seq uint32
	send := func() {
		seq++
		a.SendMessage(dataBytes(t, 1, seq))
	}
	for i := 0; i < recoveryProbesPerWindow+3; i++ {
		send()
	}
	counts := rec.drainSends(t, 2)
	if counts[0] != recoveryProbesPerWindow+3 {
		t.Fatalf("healthy network got %d sends", counts[0])
	}
	if counts[1] != recoveryProbesPerWindow {
		t.Fatalf("faulty network got %d probes, want budget %d", counts[1], recoveryProbesPerWindow)
	}
	// The next window refills the budget.
	decay(a)
	rec.acts.Drain()
	for i := 0; i < recoveryProbesPerWindow+3; i++ {
		send()
	}
	if counts := rec.drainSends(t, 2); counts[1] != recoveryProbesPerWindow {
		t.Fatalf("faulty network got %d probes after refill, want %d", counts[1], recoveryProbesPerWindow)
	}
}

func TestAutoReadmitDisabledPreservesManualModel(t *testing.T) {
	rec := &recorder{}
	cfg := DefaultConfig(2, proto.ReplicationActive)
	cfg.AutoReadmit = false
	rep, err := New(cfg, &rec.acts, rec.callbacks())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	a := rep.(*active)
	convict(t, a, 1)
	rec.acts.Drain()

	// No probes: a faulty network gets zero sends (paper §3).
	var seq uint32
	for i := 0; i < 10; i++ {
		seq++
		a.SendMessage(dataBytes(t, 1, seq))
	}
	if counts := rec.drainSends(t, 2); counts[1] != 0 {
		t.Fatalf("faulty network got %d sends with AutoReadmit off", counts[1])
	}
	// No readmission, however clean the network looks.
	for w := 0; w < 5*cfg.ProbationWindows; w++ {
		cleanWindow(t, a, 1, &seq)
	}
	if !a.fault[1] {
		t.Fatal("network auto-readmitted with AutoReadmit off")
	}
	if clears := rec.drainClears(); len(clears) != 0 {
		t.Fatalf("clears = %v, want none", clears)
	}
	if m := a.met; m.faultsCleared.Count() != 0 || m.readmits.Count() != 0 {
		t.Fatalf("counters = cleared %d readmits %d", m.faultsCleared.Count(), m.readmits.Count())
	}
	// The operator's manual readmission still works and is counted.
	a.Readmit(1)
	if a.fault[1] {
		t.Fatal("manual readmit failed")
	}
	if m := a.met; m.readmits.Count() != 1 || m.faultsCleared.Count() != 0 {
		t.Fatalf("counters after manual readmit = readmits %d cleared %d", m.readmits.Count(), m.faultsCleared.Count())
	}
}

func TestReadmitGraceDiscardsSkewEvidence(t *testing.T) {
	rec := &recorder{}
	a := newActiveForTest(t, rec, 2)
	convict(t, a, 1)
	var seq uint32
	for a.fault[1] {
		cleanWindow(t, a, 1, &seq)
	}
	rec.acts.Drain()
	// Right after readmission, peers may still exclude the network for a
	// window or two; a conviction in that grace is discarded...
	a.markFaulty(0, 1, "skew evidence")
	if a.fault[1] {
		t.Fatal("convicted during readmission grace")
	}
	if faults := rec.drainFaults(); len(faults) != 0 {
		t.Fatalf("grace raised alarms: %v", faults)
	}
	// ...but once the grace expires, convictions work again.
	passGrace(a)
	a.markFaulty(0, 1, "real fault")
	if !a.fault[1] {
		t.Fatal("conviction suppressed after grace expired")
	}
}

func TestValidateAutoReadmitParams(t *testing.T) {
	base := DefaultConfig(2, proto.ReplicationActive)
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"zero probation", func(c *Config) { c.ProbationWindows = 0 }},
		{"negative probation", func(c *Config) { c.ProbationWindows = -1 }},
		{"max below probation", func(c *Config) { c.MaxProbation = c.ProbationWindows - 1 }},
		{"zero flap window", func(c *Config) { c.FlapWindow = 0 }},
	} {
		cfg := base
		tc.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, cfg)
		}
	}
	// The knobs are ignored (and not validated) when auto-readmit is off.
	cfg := base
	cfg.AutoReadmit = false
	cfg.ProbationWindows = 0
	cfg.FlapWindow = 0
	if err := cfg.Validate(); err != nil {
		t.Errorf("Validate rejected disabled auto-readmit config: %v", err)
	}
}
