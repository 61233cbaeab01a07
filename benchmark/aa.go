package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runAA is the A/A procedure: every workload BENCHMARK.json lists (or the
// one named with -workload, listed or not) runs n times as a child process,
// each with another seed, and each end-to-end metric's spread —
// interquartile distance over median, the figure the acceptance driver
// computes — is compared with its bound. It
// returns 1 if a spread exceeds its bound, a run was incorrect or an
// operation failed. setup_s is the one exception, and the driver's: its
// spread is printed and marked but decides nothing, because the contract
// fixes setup_s as an end-to-end metric of every workload, so the README's
// rule (a metric that spreads wider than its bound moves to the per-layer
// list) has nowhere to move it, and a ring's formation time is bimodal
// (README, "setup_s").
func runAA(cfg config, n int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	code := 0
	for _, w := range append(append([]workloadSpec(nil), workloadSpecs...), handRun...) {
		if _, gated := gatedWorkload(w.Name); cfg.workload != w.Name && (cfg.workload != "" || !gated) {
			continue
		}
		runs := make(map[string][]float64)
		for i := 0; i < n; i++ {
			cmd := exec.Command(exe,
				"-workload", w.Name, "-seed", strconv.FormatInt(cfg.seed+int64(i), 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-dir", cfg.dir)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			var res result
			if jerr := json.Unmarshal(lines[len(lines)-1], &res); jerr != nil {
				fmt.Printf("%s run %d: no result (%v, exit: %v)\n", w.Name, i+1, jerr, err)
				code = 1
				continue
			}
			if err != nil || !res.Correct || res.Failed > 0 {
				fmt.Printf("%s run %d: correct=%v failed=%d of %d (exit: %v)\n", w.Name, i+1, res.Correct, res.Failed, res.Attempted, err)
				for _, l := range lines {
					if bytes.HasPrefix(l, []byte("# VIOLATION")) {
						fmt.Printf("  %s\n", l)
					}
				}
				code = 1
			}
			for name, m := range res.Metrics {
				runs[name] = append(runs[name], m.Value)
			}
		}
		fmt.Printf("%s: %d runs\n", w.Name, n)
		fmt.Printf("  %-18s %12s %12s %12s %8s %6s  %s\n", "metric", "q1", "median", "q3", "spread", "bound", "values")
		for _, m := range endToEnd {
			xs := runs[m.Name]
			if len(xs) < 2 {
				continue
			}
			q1, _, q3 := quartiles(xs)
			sp := spread(xs)
			verdict := ""
			switch {
			case sp > m.Bound && m.Name == "setup_s":
				verdict = "  (wider than its bound; exempt, see README)"
			case sp > m.Bound:
				verdict = "  EXCEEDS ITS BOUND"
				code = 1
			case sp > m.Bound/3:
				verdict = "  (above a third of its bound)"
			}
			vals := make([]string, len(xs))
			for i, x := range xs {
				vals[i] = strconv.FormatFloat(x, 'g', 4, 64)
			}
			fmt.Printf("  %-18s %12.5g %12.5g %12.5g %7.1f%% %5.0f%%  %s%s\n",
				m.Name, q1, median(xs), q3, 100*sp, 100*m.Bound, strings.Join(vals, " "), verdict)
		}
	}
	return code
}
