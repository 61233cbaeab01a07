// Command benchmark is the one benchmark for the whole stack: six named
// workloads over the exported surface of the ring, the log service and the
// simulator, end-to-end metrics from an untraced run and per-layer metrics
// from a traced one. See README.md for the glossary and BENCHMARK.json (at
// the repository root) for the contract the acceptance driver reads.
//
//	bash benchmark/run.sh --workload logd-append --seed 1 --seconds 36 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool   // smoke-test sizes: no extra set-ups, short phases
	dir      string // scratch root: store directories and trace files

	tr *tracer // where a traced window puts its spans; set by run
}

// generators is G: how many goroutines or connections may generate load.
func generators() int { return min(max(runtime.NumCPU(), 2), 4) }

// outcome is what one measured window — and, with the run's own figures
// added, one run — reports.
type outcome struct {
	attempted, failed int64
	violations        []string
	metrics           map[string]float64
	info              []string
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]float64)} }

func (o *outcome) set(name string, v float64) { o.metrics[name] = v }
func (o *outcome) note(format string, args ...any) {
	o.info = append(o.info, fmt.Sprintf(format, args...))
}
func (o *outcome) violate(format string, args ...any) {
	o.violations = append(o.violations, fmt.Sprintf(format, args...))
}

// workload is one named scenario. setUp builds a fresh instance of the
// system under test and returns once it is ready to serve (that interval
// is setup_s); the instance then measures one window.
type workload interface {
	setUp(cfg config, traced bool) (instance, error)
}

// instance is one set-up system. measure warms up, measures for window,
// drains, verifies, and fills out with the end-to-end metrics (always) and
// the per-layer metrics (on a traced instance).
type instance interface {
	measure(window time.Duration, out *outcome) error
	close()
}

// workloads lists the scenarios. A run is extraSetUps set-ups that are
// closed at once (setup_s is the fastest set-up of the run, see setupStat),
// then one more set-up → warm-up → one measured window → drain and verify.
// The live workloads run the real stack on real threads and keep the CPUs
// from idling while they do (antiidle_linux.go). headline is the end-to-end
// metric a traced run's overhead is judged on; the workloads without one
// report no trace.overhead_share: the simulator has no decorator to price,
// and logd-mixed-fault's window is one kill-restart-catch-up sequence that
// cannot be halved for a reference.
var workloads = map[string]struct {
	w           workload
	extraSetUps int
	live        bool
	headline    string
	lowerBetter bool
}{
	"ring-small":       {ringSmall{}, 9, true, "ops_per_s", false},
	"ring-bulk":        {ringBulk{}, 9, true, "ops_per_s", false},
	"ring-paced-fault": {ringPacedFault{}, 9, true, "latency_p50_us", true},
	"logd-append":      {logdAppend{}, 3, true, "latency_p50_us", true},
	"logd-mixed-fault": {logdMixedFault{}, 3, true, "", false},
	"sim-figure6":      {simFigure6{}, 199, false, "", false},
}

// setupStat condenses a run's set-up times into setup_s: the fastest one.
// Ring formation on this stack is multi-modal — of 400 boots on the
// reference host 61 % took 3–10 ms (every node's first join reaches the
// others inside one consensus round) and the rest 30, 150, 300 or 600 ms (a
// partial ring installs first and has to merge) — so the median of a run's
// few boots jumps between modes from run to run and their mean is worse.
// The fastest is the one-round path in all but one run in three hundred and
// still moves when work is added to set-up, which is what the metric is
// for. The run's notes give the median and the slowest too.
func setupStat(times []float64) float64 { return percentile(times, 0) }

// run executes one workload once. A traced run of a workload with a
// headline metric halves the window: the first half is measured untraced —
// the reference trace.overhead_share compares the traced half with — and
// the second with the decorators in.
func run(cfg config) (*outcome, error) {
	entry, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	wedgedBoots.Store(0)
	if cfg.trace {
		cfg.tr = &tracer{epoch: time.Now()}
	}
	var idleNote string
	if entry.live && !cfg.quick {
		var stop func()
		stop, idleNote = keepCPUsBusy()
		defer stop()
	}

	var setupTimes []float64
	setUp := func(traced bool) (instance, error) {
		start := time.Now()
		inst, err := entry.w.setUp(cfg, traced)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", len(setupTimes)+1, err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		return inst, nil
	}
	measure := func(traced bool, window time.Duration) (*outcome, error) {
		inst, err := setUp(traced)
		if err != nil {
			return nil, err
		}
		defer inst.close()
		out := newOutcome()
		return out, inst.measure(window, out)
	}
	if !cfg.quick {
		for i := 0; i < entry.extraSetUps; i++ {
			inst, err := setUp(false)
			if err != nil {
				return nil, err
			}
			inst.close()
		}
	}
	window := time.Duration(cfg.seconds * float64(time.Second))
	var ref *outcome
	if cfg.trace && entry.headline != "" && !cfg.quick { // the smoke test does without
		window /= 2
		var err error
		if ref, err = measure(false, window); err != nil {
			return nil, fmt.Errorf("untraced reference window: %w", err)
		}
	}
	out, err := measure(cfg.trace, window)
	if err != nil {
		return nil, err
	}
	if idleNote != "" {
		out.note("%s", idleNote)
	}
	if ref != nil {
		// The reference window is no part of the traced figures, but what
		// failed in it failed in this run.
		out.attempted += ref.attempted
		out.failed += ref.failed
		for _, v := range ref.violations {
			out.violate("untraced reference window: %s", v)
		}
		if r := ref.metrics[entry.headline]; r > 0 {
			share := out.metrics[entry.headline]/r - 1
			if !entry.lowerBetter {
				share = -share
			}
			out.set("trace.overhead_share", share)
			out.note("trace overhead: %s %.6g traced vs %.6g in the untraced window before it, each %v long",
				entry.headline, out.metrics[entry.headline], r, window)
		}
	}
	// A boot that never formed its ring was made again; it counts as one
	// operation attempted and failed.
	wedged := wedgedBoots.Load()
	out.attempted += wedged
	out.failed += wedged
	if wedged > 0 {
		out.note("NOTE: %d boot(s) never formed the ring within %v and were made again; counted as failed", wedged, formTimeout)
	}
	out.set("bench.boots_wedged", float64(wedged))
	out.set("setup_s", setupStat(setupTimes))
	out.note("%d set-ups: fastest %.6f s, median %.6f s, slowest %.6f s", len(setupTimes),
		percentile(setupTimes, 0), median(setupTimes), percentile(setupTimes, 1))
	out.set("proc.peak_rss_mb", peakRSSMB())
	if cfg.trace {
		if err := writeTrace(cfg, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every metric by name with its unit, the run's notes and
// violations, and the result object as the last line. It returns the exit
// code.
func report(cfg config, out *outcome) int {
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	fmt.Printf("# workload %s seed %d seconds %g trace %v (G=%d, %d CPUs, %s)\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, generators(), runtime.NumCPU(), runtime.Version())
	for _, line := range out.info {
		fmt.Println("#", line)
	}
	res := result{
		Correct:   len(out.violations) == 0,
		Attempted: max(out.attempted, 1),
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	listed := make(map[string]bool)
	for _, m := range specs {
		v, ok := out.metrics[m.Name]
		if !ok && !cfg.trace {
			out.violate("end-to-end metric %s was not measured", m.Name)
			res.Correct = false
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[m.Name] = metricValue{v, m.Unit}
		listed[m.Name] = true
		fmt.Printf("%-44s %14.6g %s\n", m.Name, v, m.Unit)
	}
	// Anything else the run measured (the other list's metrics) is printed
	// for the reader but is not part of the result object.
	var extra []string
	for name := range out.metrics {
		if !listed[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Printf("%-44s %14.6g %s (not in this run's result)\n", name, out.metrics[name], unitOf(name))
	}
	fmt.Printf("# attempted %d failed %d failed_share %g\n", res.Attempted, res.Failed,
		float64(res.Failed)/float64(res.Attempted))
	if res.Failed > 0 {
		fmt.Printf("# FAILED: %d of %d operations; the notes above say which\n", res.Failed, res.Attempted)
	}
	for _, v := range out.violations {
		fmt.Println("# VIOLATION:", v)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func unitOf(name string) string {
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (BENCHMARK.json lists them)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for payload bytes, client ids, probe phase, netem and the simulator")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 repeats the workload with the decorators in and reports the per-layer metrics")
	flag.BoolVar(&cfg.quick, "quick", false, "smoke-test sizes: one set-up, short warm-up and drain, CPUs left to idle")
	flag.StringVar(&cfg.dir, "dir", ".bench_build", "scratch directory for store data and trace files")
	spec := flag.Bool("spec", false, "print BENCHMARK.json and exit")
	aa := flag.Int("aa", 0, "A/A mode: run every workload N times and compare each end-to-end metric's spread with its bound")
	spin := flag.Bool("spin", false, "internal: be one of the idle-priority spinners a live run starts (antiidle_linux.go)")
	flag.Parse()

	if *spin {
		spinUntilOrphaned()
		return
	}

	if *spec {
		b, err := benchmarkJSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		os.Stdout.Write(b) //nolint:errcheck
		return
	}
	cfg.trace = trace != 0
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive")
		os.Exit(2)
	}
	abs, err := filepath.Abs(cfg.dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	cfg.dir = abs
	if *aa > 0 {
		os.Exit(runAA(cfg, *aa))
	}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	os.Exit(report(cfg, out))
}
