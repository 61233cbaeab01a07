// Command totembench regenerates the paper's evaluation figures on the
// discrete-event simulator. See EXPERIMENTS.md for the mapping to the
// paper's figures; the live-cluster measurements are benchmark/'s.
//
// Usage:
//
//	totembench -figure 6        # Fig. 6/8 data (4 nodes)
//	totembench -figure 7        # Fig. 7/9 data (6 nodes)
//	totembench -figure headline # >9000 1KB msgs/sec claim
//	totembench -figure sawtooth # packing peaks at 700/1400 B
//	totembench -figure ap       # active-passive (3 networks, K=2)
//	totembench -figure all
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"github.com/totem-rrp/totem/internal/bench"
)

func main() {
	figure := flag.String("figure", "all", "which figure to regenerate: 6, 7, 8, 9, headline, sawtooth, ap, ablations, all")
	csvDir := flag.String("csv", "", "also write the sweep data as CSV files into this directory")
	flag.Parse()
	if err := run(*figure, *csvDir); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// writeCSV saves one figure's series when -csv is set.
func writeCSV(dir, name string, series []bench.Series) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return bench.WriteCSV(f, series)
}

func run(figure, csvDir string) error {
	out := os.Stdout
	fig46 := func() error {
		series, err := bench.Figure(4, bench.PaperLengths)
		if err != nil {
			return err
		}
		bench.PrintTable(out, "Figures 6 and 8: transmission rate, 4 nodes (msgs/sec and KB/s)", series)
		return writeCSV(csvDir, "figure6-8_4nodes", series)
	}
	fig79 := func() error {
		series, err := bench.Figure(6, bench.PaperLengths)
		if err != nil {
			return err
		}
		bench.PrintTable(out, "Figures 7 and 9: transmission rate, 6 nodes (msgs/sec and KB/s)", series)
		return writeCSV(csvDir, "figure7-9_6nodes", series)
	}
	headline := func() error {
		r, err := bench.Headline(4)
		if err != nil {
			return err
		}
		bench.PrintHeadline(out, r)
		return nil
	}
	sawtooth := func() error {
		s, err := bench.Sawtooth(4)
		if err != nil {
			return err
		}
		bench.PrintTable(out, "Packing sawtooth (§8): peaks at 700 and 1400 bytes", []bench.Series{s})
		return writeCSV(csvDir, "sawtooth", []bench.Series{s})
	}
	ap := func() error {
		s, err := bench.ActivePassiveSweep(4, 2, bench.PaperLengths)
		if err != nil {
			return err
		}
		bench.PrintTable(out, "Active-passive replication (§7), 4 nodes, N=3, K=2", []bench.Series{s})
		return writeCSV(csvDir, "active-passive", []bench.Series{s})
	}
	ablations := func() error {
		win, err := bench.AblateWindowSize([]int{10, 20, 40, 80, 160, 320})
		if err != nil {
			return err
		}
		bench.PrintTable(out, "Ablation: flow-control window (first column = window size)", []bench.Series{win})
		visit, err := bench.AblateMaxPerVisit([]int{1, 5, 10, 20, 40})
		if err != nil {
			return err
		}
		bench.PrintTable(out, "Ablation: packets per token visit (first column = cap)", []bench.Series{visit})
		ks, err := bench.AblateK([]int{2, 3})
		if err != nil {
			return err
		}
		bench.PrintTable(out, "Ablation: active-passive K on 4 networks (first column = K)", []bench.Series{ks})
		ring, err := bench.AblateRingSize([]int{2, 4, 6, 8})
		if err != nil {
			return err
		}
		bench.PrintTable(out, "Ablation: ring size (first column = members)", []bench.Series{ring})
		return nil
	}
	switch figure {
	case "6", "8":
		return fig46()
	case "7", "9":
		return fig79()
	case "headline":
		return headline()
	case "sawtooth":
		return sawtooth()
	case "ap":
		return ap()
	case "ablations":
		return ablations()
	case "all":
		for _, f := range []func() error{headline, fig46, fig79, sawtooth, ap, ablations} {
			if err := f(); err != nil {
				return err
			}
			fmt.Fprintln(out)
		}
		return nil
	default:
		return fmt.Errorf("unknown figure %q", figure)
	}
}
