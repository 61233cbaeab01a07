// Command totemtorture runs the deterministic torture harness: seeded
// adversarial fault programs executed on the virtual-time simulator with
// every run checked against the global protocol invariants (agreed
// delivery order, no duplicates, self-delivery, convergence after heal,
// token accounting, monitor boundedness — see DESIGN.md §10).
//
// Batch mode scans seed ranges across replication styles; on the first
// violation it greedily shrinks the fault program to a minimal repro and
// (optionally) writes it to a JSON file that -replay re-executes byte for
// byte:
//
//	totemtorture -seeds 200                 # CI smoke: seeds 1..200, all styles
//	totemtorture -seed 7 -style passive -v  # one run, verbose
//	totemtorture -seeds 50 -style active -shrink -repro fail.json
//	totemtorture -replay fail.json          # re-run a saved repro
//	totemtorture -seed 3 -style passive -chaos held-token-leak -expect token-accounting
//
// The -chaos flag re-introduces a known-fixed bug (mutation testing); with
// -expect the exit status reports whether the checker caught it.
//
// Live mode runs the same programs against real totem.Nodes on the
// goroutine runtime — over the in-process transport or loopback UDP
// sockets — through a netem-style impairment layer, checked by the same
// invariants (DESIGN.md §11):
//
//	totemtorture -live -seeds 50 -transport udp -workers 4
//	totemtorture -live -seeds 20 -budget 90s     # stop dispatching at 90s
//	totemtorture -diff -seeds 2                  # sim-vs-live differential
//
// Multi-ring mode tortures an M-shard cluster: on the simulator each
// seed expands to M independent derived-seed programs (sharded rings
// never exchange a frame); with -live it boots real M-ring Nodes under
// keyed load and blacks out individual shards, checking per-shard
// ordering, non-stall of healthy shards and post-heal recovery:
//
//	totemtorture -shards 4 -seeds 25             # sim: 25 seeds x 4 rings
//	totemtorture -shards 4 -live -seeds 3        # live multi-ring torture
//
// Exit codes: 0 clean (or the expected violation fired), 1 violation (or
// an expected violation did not fire), 2 usage or execution error.
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"github.com/totem-rrp/totem/internal/core"
	"github.com/totem-rrp/totem/internal/live"
	"github.com/totem-rrp/totem/internal/proto"
	"github.com/totem-rrp/totem/internal/torture"
)

func main() {
	var (
		seeds    = flag.Int("seeds", 0, "batch mode: run seeds seed-base..seed-base+N-1 for each selected style")
		seedBase = flag.Int64("seed-base", 1, "first seed of a -seeds batch")
		seed     = flag.Int64("seed", 0, "single mode: run exactly this seed")
		style    = flag.String("style", "all", "active | passive | active-passive | all | gray")
		corrupt  = flag.String("corrupt", "", "gray mode: corrupt one node's state mid-run (monitors | held-token | ring-seq | aru | rand)")
		shrink   = flag.Bool("shrink", false, "on violation, shrink the program to a minimal repro")
		repro    = flag.String("repro", "", "write the (shrunk) failing program to this JSON file")
		replay   = flag.String("replay", "", "re-execute a saved repro file instead of generating programs")
		chaos    = flag.String("chaos", "", "re-introduce a fixed bug: held-token-leak | pinned-min | frozen-token-filter | impatient-gate")
		expect   = flag.String("expect", "", "require this invariant to fire (mutation testing)")
		traceN   = flag.Int("trace", 0, "print the last N trace events of a failing (or -v single) run")
		verbose  = flag.Bool("v", false, "per-run progress output")

		shards = flag.Int("shards", 0, "multi-ring mode: with M>1 the simulator runs M derived-seed programs per seed (one per independent ring); -live runs the live multi-ring shard torture instead")

		liveMode  = flag.Bool("live", false, "run programs on the live goroutine/socket harness instead of the simulator")
		diffMode  = flag.Bool("diff", false, "differential mode: replay mild programs on both sim and live and compare")
		transport = flag.String("transport", "mem", "live/diff transport: mem | udp")
		wirepath  = flag.String("wirepath", "", "live/diff UDP wire path: auto | portable | batch (empty = auto)")
		timescale = flag.Float64("timescale", 0.3, "live/diff: wall seconds per virtual second")
		skew      = flag.Float64("skew", 0, "live: per-node clock skew fraction (0.1 = timers off by up to ±10%)")
		workers   = flag.Int("workers", 1, "live mode: concurrent runs")
		budget    = flag.Duration("budget", 0, "live mode: stop dispatching new seeds after this wall-clock budget")
	)
	flag.Parse()

	code, err := run(config{
		seeds: *seeds, seedBase: *seedBase, seed: *seed, style: *style,
		corrupt: *corrupt,
		shrink:  *shrink, repro: *repro, replay: *replay,
		chaos: *chaos, expect: *expect, traceN: *traceN, verbose: *verbose,
		shards: *shards,
		live:   *liveMode, diff: *diffMode, transport: *transport, wirepath: *wirepath,
		timescale: *timescale, skew: *skew, workers: *workers, budget: *budget,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "totemtorture:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

type config struct {
	seeds    int
	seedBase int64
	seed     int64
	style    string
	corrupt  string
	shrink   bool
	repro    string
	replay   string
	chaos    string
	expect   string
	traceN   int
	verbose  bool

	shards int

	live      bool
	diff      bool
	transport string
	wirepath  string
	timescale float64
	skew      float64
	workers   int
	budget    time.Duration
}

func run(cfg config) (int, error) {
	opt := torture.Options{}
	switch cfg.chaos {
	case "":
	case "held-token-leak":
		opt.Chaos = core.ChaosFlags{HeldTokenLeak: true}
	case "pinned-min":
		opt.Chaos = core.ChaosFlags{MonitorPinnedMin: true}
	case "frozen-token-filter":
		opt.Chaos = core.ChaosFlags{FrozenTokenFilter: true}
	case "impatient-gate":
		opt.Chaos = core.ChaosFlags{ImpatientGate: true}
	default:
		return 2, fmt.Errorf("unknown -chaos %q", cfg.chaos)
	}

	if cfg.corrupt != "" {
		if cfg.style != "gray" {
			return 2, fmt.Errorf("-corrupt requires -style gray")
		}
		if cfg.corrupt != "rand" {
			ok := false
			for _, s := range torture.CorruptSubs {
				if cfg.corrupt == s {
					ok = true
				}
			}
			if !ok {
				return 2, fmt.Errorf("unknown -corrupt %q (want rand or one of %v)", cfg.corrupt, torture.CorruptSubs)
			}
		}
	}

	if (cfg.live || cfg.diff) && cfg.chaos != "" {
		return 2, fmt.Errorf("-chaos is simulator-only (the flags are process-global; live workers run concurrently)")
	}
	if cfg.live && cfg.shrink {
		return 2, fmt.Errorf("-shrink is simulator-only; replay the seed without -live to shrink it")
	}

	if cfg.replay != "" {
		return replayFile(cfg, opt)
	}

	var styles []proto.ReplicationStyle
	if cfg.style == "gray" {
		if cfg.diff {
			return 2, fmt.Errorf("-style gray is not supported in -diff mode")
		}
		// Gray programs draw their replication style from the seed; one
		// placeholder entry keeps the batch loops shared.
		styles = []proto.ReplicationStyle{proto.ReplicationActive}
	} else {
		var err error
		styles, err = selectStyles(cfg.style)
		if err != nil {
			return 2, err
		}
	}

	base, n := cfg.seedBase, cfg.seeds
	if cfg.seed != 0 {
		base, n = cfg.seed, 1
	}
	if n <= 0 {
		return 2, fmt.Errorf("need -seeds N, -seed S or -replay FILE (see -help)")
	}
	if cfg.shards > 1 {
		if cfg.diff {
			return 2, fmt.Errorf("-shards is not supported in -diff mode")
		}
		if cfg.style == "gray" {
			return 2, fmt.Errorf("-shards is not supported with -style gray")
		}
		if cfg.live {
			return shardLiveBatch(cfg, base, n)
		}
		return shardSimBatch(cfg, opt, styles, base, n)
	}
	switch {
	case cfg.diff:
		return diffBatch(cfg, styles, base, n)
	case cfg.live:
		return liveBatch(cfg, styles, base, n)
	}
	return batch(cfg, opt, styles, base, n)
}

// shardSeed derives an independent per-ring seed: M sharded rings never
// exchange a frame, so the sim equivalent of one M-shard cluster is M
// unrelated programs — distinct seeds keep their fault schedules from
// being artificially synchronised.
func shardSeed(seed int64, shard int) int64 {
	return seed*1000003 + int64(shard)*7919
}

// shardSimBatch models an M-ring cluster on the simulator: each seed
// expands to M derived-seed single-ring programs, all of which must run
// clean for the seed to pass.
func shardSimBatch(cfg config, opt torture.Options, styles []proto.ReplicationStyle, base int64, n int) (int, error) {
	start := time.Now()
	runs := 0
	for _, style := range styles {
		for s := base; s < base+int64(n); s++ {
			for sh := 0; sh < cfg.shards; sh++ {
				p := cfg.generate(shardSeed(s, sh), style)
				res, err := torture.Execute(p, opt)
				if err != nil {
					return 2, err
				}
				runs++
				if cfg.verbose {
					fmt.Printf("seed %d shard %d %-14s delivered %5d end %8s  %s\n",
						s, sh, p.Style, res.Delivered, res.End.Truncate(time.Millisecond), outcome(res))
				}
				if res.Violation != nil {
					fmt.Printf("(shard %d of an M=%d sim batch, derived seed %d)\n", sh, cfg.shards, p.Seed)
					return report(cfg, opt, p, res)
				}
			}
		}
	}
	fmt.Printf("ok: %d runs (%d seeds x %d shards), %d styles, 0 violations (%.1fs)\n",
		runs, n, cfg.shards, len(styles), time.Since(start).Seconds())
	return 0, nil
}

// shardLiveBatch sweeps seeds through the live multi-ring torture: real
// Nodes with M rings under keyed load and per-shard blackouts, checked
// for per-shard ordering, non-stall and post-heal recovery.
func shardLiveBatch(cfg config, base int64, n int) (int, error) {
	start := time.Now()
	style := cfg.style
	if style == "all" {
		style = "" // harness default
	}
	runs := 0
	for s := base; s < base+int64(n); s++ {
		res, err := live.ShardTorture(live.ShardTortureOptions{
			Shards:    cfg.shards,
			Style:     style,
			Transport: cfg.transport,
			WirePath:  cfg.wirepath,
			Seed:      s,
		})
		if err != nil {
			return 2, err
		}
		runs++
		if cfg.verbose {
			fmt.Printf("shard-live seed %d delivered %6d windows %d  %s\n",
				s, res.Delivered, res.Windows, shardOutcome(res))
		}
		if !res.Ok() {
			fmt.Printf("SHARD LIVE VIOLATION seed %d (shards %d, transport %s):\n",
				s, cfg.shards, cfg.transport)
			for _, v := range res.Violations {
				fmt.Println("  " + v)
			}
			return 1, nil
		}
	}
	fmt.Printf("shard-live ok: %d runs on %s, %d shards, 0 violations (%.1fs)\n",
		runs, cfg.transport, cfg.shards, time.Since(start).Seconds())
	return 0, nil
}

func shardOutcome(res *live.ShardTortureResult) string {
	if res.Ok() {
		return "ok"
	}
	return fmt.Sprintf("%d violations", len(res.Violations))
}

// generate builds the program for one (seed, style) job: gray mode draws
// everything (including the replication style) from the seed.
func (cfg config) generate(seed int64, style proto.ReplicationStyle) torture.Program {
	if cfg.style == "gray" {
		return torture.GenerateGray(seed, cfg.corrupt)
	}
	return torture.Generate(seed, style)
}

// liveOptions maps the CLI flags onto the harness options.
func liveOptions(cfg config) live.Options {
	return live.Options{
		Transport: cfg.transport,
		WirePath:  cfg.wirepath,
		TimeScale: cfg.timescale,
		ClockSkew: cfg.skew,
	}
}

// liveAdapt rewrites a generated program for wall-clock execution: the
// simulator's 4 ms load interval would compress below Go timer
// granularity at the configured timescale, so the interval is floored to
// 5 ms of wall time per message.
func liveAdapt(p torture.Program, scale float64) torture.Program {
	if floor := time.Duration(float64(5*time.Millisecond) / scale); p.LoadInterval < floor {
		p.LoadInterval = floor
	}
	return p
}

// liveBatch sweeps seeds on the live harness with a worker pool, bounded
// by the wall-clock budget: once the budget is spent no new seeds are
// dispatched (in-flight runs finish and are still checked).
func liveBatch(cfg config, styles []proto.ReplicationStyle, base int64, n int) (int, error) {
	start := time.Now()
	type job struct {
		style proto.ReplicationStyle
		seed  int64
	}
	var jobs []job
	for s := base; s < base+int64(n); s++ {
		for _, style := range styles {
			jobs = append(jobs, job{style, s})
		}
	}
	workers := cfg.workers
	if workers < 1 {
		workers = 1
	}
	var (
		mu       sync.Mutex
		runs     int
		skipped  int
		firstBad *torture.Result
	)
	jobc := make(chan job)
	done := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := range jobc {
				p := liveAdapt(cfg.generate(j.seed, j.style), cfg.timescale)
				res, err := live.Execute(p, liveOptions(cfg))
				mu.Lock()
				if err != nil {
					if firstBad == nil {
						firstBad = &torture.Result{Program: p, Violation: &torture.Violation{
							Invariant: "harness", Detail: err.Error(),
						}}
					}
					mu.Unlock()
					continue
				}
				runs++
				if cfg.verbose {
					fmt.Printf("live seed %d %-14s delivered %5d end %8s  %s\n",
						j.seed, j.style, res.Delivered, res.End.Truncate(time.Millisecond), outcome(res))
				}
				if res.Violation != nil && firstBad == nil {
					firstBad = res
				}
				mu.Unlock()
			}
		}()
	}
	for _, j := range jobs {
		mu.Lock()
		bad := firstBad != nil
		mu.Unlock()
		if bad || (cfg.budget > 0 && time.Since(start) > cfg.budget) {
			skipped++
			continue
		}
		jobc <- j
	}
	close(jobc)
	for w := 0; w < workers; w++ {
		<-done
	}
	if firstBad != nil {
		fmt.Printf("LIVE VIOLATION seed %d style %s (transport %s): %v\n",
			firstBad.Program.Seed, firstBad.Program.Style, cfg.transport, firstBad.Violation)
		if cfg.traceN > 0 {
			printTail(firstBad, cfg.traceN)
		}
		if cfg.repro != "" {
			r := torture.Repro{
				Note:      fmt.Sprintf("totemtorture -live -transport %s seed %d style %s", cfg.transport, firstBad.Program.Seed, firstBad.Program.Style),
				Expect:    firstBad.Violation.Invariant,
				Program:   firstBad.Program,
				Violation: firstBad.Violation,
			}
			if err := torture.SaveRepro(cfg.repro, r); err != nil {
				return 2, err
			}
			fmt.Printf("repro written to %s\n", cfg.repro)
		}
		return 1, nil
	}
	note := ""
	if skipped > 0 {
		note = fmt.Sprintf(", %d seeds skipped by -budget", skipped)
	}
	fmt.Printf("live ok: %d runs on %s, %d styles, 0 violations (%.1fs%s)\n",
		runs, cfg.transport, len(styles), time.Since(start).Seconds(), note)
	return 0, nil
}

// diffBatch replays one mild program per (style, seed) on both backends
// and fails on any disagreement.
func diffBatch(cfg config, styles []proto.ReplicationStyle, base int64, n int) (int, error) {
	start := time.Now()
	runs := 0
	for _, style := range styles {
		for s := base; s < base+int64(n); s++ {
			p := live.DiffProgram(s, style)
			var rep *live.DiffReport
			var err error
			// The sim side is deterministic; only the live side is subject
			// to wall-clock scheduling noise. Two retries absorb a noisy CI
			// neighbour stalling a node past a protocol timeout, while a
			// genuine sim-vs-live divergence reproduces on every attempt.
			for attempt := 0; attempt < 3; attempt++ {
				rep, err = live.Differential(p, liveOptions(cfg))
				if err != nil {
					return 2, err
				}
				if rep.OK() {
					break
				}
				fmt.Printf("diff seed %d style %s: mismatch on attempt %d, retrying\n", s, style, attempt+1)
			}
			runs++
			if cfg.verbose {
				fmt.Printf("diff seed %d %-14s sim %5d live %5d deliveries  %s\n",
					s, style, rep.Sim.Delivered, rep.Live.Delivered, diffOutcome(rep))
			}
			if !rep.OK() {
				fmt.Printf("DIFF MISMATCH seed %d style %s (transport %s):\n", s, style, cfg.transport)
				for _, m := range rep.Mismatches {
					fmt.Println("  " + m)
				}
				return 1, nil
			}
		}
	}
	fmt.Printf("diff ok: %d sim-vs-live replays on %s agree (%.1fs)\n",
		runs, cfg.transport, time.Since(start).Seconds())
	return 0, nil
}

func diffOutcome(rep *live.DiffReport) string {
	if rep.OK() {
		return "agree"
	}
	return fmt.Sprintf("%d mismatches", len(rep.Mismatches))
}

func selectStyles(name string) ([]proto.ReplicationStyle, error) {
	if name == "all" {
		return []proto.ReplicationStyle{
			proto.ReplicationActive,
			proto.ReplicationPassive,
			proto.ReplicationActivePassive,
		}, nil
	}
	s, err := torture.StyleByName(name)
	if err != nil {
		return nil, err
	}
	return []proto.ReplicationStyle{s}, nil
}

// batch executes n seeds for every style and handles the first violation:
// report, optionally shrink, optionally save, exit 1. With -expect the
// polarity flips — a batch where no run fails the expected invariant is
// the failure.
func batch(cfg config, opt torture.Options, styles []proto.ReplicationStyle, base int64, n int) (int, error) {
	start := time.Now()
	runs := 0
	for _, style := range styles {
		for s := base; s < base+int64(n); s++ {
			p := cfg.generate(s, style)
			res, err := torture.Execute(p, opt)
			if err != nil {
				return 2, err
			}
			runs++
			if cfg.verbose {
				fmt.Printf("seed %d %-14s delivered %5d end %8s  %s\n",
					s, p.Style, res.Delivered, res.End.Truncate(time.Millisecond), outcome(res))
			}
			if res.Violation != nil {
				if cfg.expect != "" && res.Violation.Invariant == cfg.expect {
					fmt.Printf("expected violation fired: %v\n", res.Violation)
					return 0, nil
				}
				return report(cfg, opt, p, res)
			}
			if cfg.traceN > 0 && cfg.seed != 0 {
				printTail(res, cfg.traceN)
			}
		}
	}
	if cfg.expect != "" {
		fmt.Printf("FAIL: expected invariant %q never fired in %d runs\n", cfg.expect, runs)
		return 1, nil
	}
	fmt.Printf("ok: %d runs, %d styles, 0 violations (%.1fs)\n",
		runs, len(styles), time.Since(start).Seconds())
	return 0, nil
}

func outcome(res *torture.Result) string {
	if res.Violation != nil {
		return res.Violation.String()
	}
	return "ok"
}

// report prints a violation, optionally shrinks it to a minimal repro and
// saves it, and returns exit code 1.
func report(cfg config, opt torture.Options, p torture.Program, res *torture.Result) (int, error) {
	fmt.Printf("VIOLATION seed %d style %s: %v\n", p.Seed, p.Style, res.Violation)
	final, finalRes := p, res
	if cfg.shrink {
		sp, sr, err := torture.Shrink(p, opt, 0)
		if err != nil {
			return 2, err
		}
		if sr != nil && sr.Violation != nil {
			final, finalRes = sp, sr
			fmt.Printf("shrunk: %d ops -> %d ops, still fails %s\n",
				len(p.Ops), len(sp.Ops), sr.Violation.Invariant)
		}
	}
	if cfg.traceN > 0 {
		printTail(finalRes, cfg.traceN)
	}
	if cfg.repro != "" {
		r := torture.Repro{
			Note:      fmt.Sprintf("totemtorture seed %d style %s", p.Seed, p.Style),
			Chaos:     opt.Chaos,
			Expect:    finalRes.Violation.Invariant,
			Program:   final,
			Violation: finalRes.Violation,
		}
		if err := torture.SaveRepro(cfg.repro, r); err != nil {
			return 2, err
		}
		fmt.Printf("repro written to %s\n", cfg.repro)
	}
	return 1, nil
}

// replayFile re-executes a saved repro. The outcome is judged against the
// repro's Expect field: an empty Expect means the program must run clean,
// otherwise the recorded invariant must fire again.
func replayFile(cfg config, opt torture.Options) (int, error) {
	r, err := torture.LoadRepro(cfg.replay)
	if err != nil {
		return 2, err
	}
	if cfg.chaos == "" {
		opt.Chaos = r.Chaos
	}
	expect := r.Expect
	if cfg.expect != "" {
		expect = cfg.expect
	}
	var res *torture.Result
	if cfg.live {
		res, err = live.Execute(r.Program, liveOptions(cfg))
	} else {
		res, err = torture.Execute(r.Program, opt)
	}
	if err != nil {
		return 2, err
	}
	fmt.Printf("replay %s: %s\n", cfg.replay, outcome(res))
	if cfg.traceN > 0 {
		printTail(res, cfg.traceN)
	}
	switch {
	case expect == "" && res.Violation == nil:
		return 0, nil
	case expect != "" && res.Violation != nil && res.Violation.Invariant == expect:
		return 0, nil
	case expect != "":
		fmt.Printf("FAIL: expected invariant %q, got %s\n", expect, outcome(res))
		return 1, nil
	default:
		return 1, nil
	}
}

func printTail(res *torture.Result, n int) {
	lines := res.TraceTail
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	for _, l := range lines {
		fmt.Println("  " + l)
	}
}
