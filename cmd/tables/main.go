// Command tables regenerates the paper's evaluation tables and figures
// on the synthetic stand-in datasets (internal/harness). Each experiment
// prints one row per measured cell; "(oom)" and "(limit)" cells mark
// baseline runs that exceeded the resource budget, mirroring the
// paper's "—" (out of memory) and "×" (did not finish) entries.
//
// Usage:
//
//	tables -table all            # every experiment
//	tables -table 3              # Table 3 only
//	tables -table fig1b -scale 2 # Figure 1b at double scale
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"peregrine/internal/harness"
)

func main() {
	table := flag.String("table", "all", "experiment to run: 1, 3, 4, 5, 6, fig1b, fig1c, fig10, fig11, fig12a, fig12b, fig13, loadbalance, all")
	scale := flag.Int("scale", 0, "dataset scale multiplier (default: PEREGRINE_SCALE or 1)")
	threads := flag.Int("threads", 0, "worker threads (default: GOMAXPROCS)")
	budget := flag.Int("budget", 0, "baseline resource budget in embeddings/tuples (default 4M)")
	flag.Parse()

	cfg := harness.Default()
	if *scale > 0 {
		cfg.Scale = *scale
	}
	if *threads > 0 {
		cfg.Threads = *threads
	}
	if *budget > 0 {
		cfg.Budget = *budget
	}

	runners := map[string]func(harness.Config) []harness.Row{
		"1":           harness.Table1,
		"3":           harness.Table3,
		"4":           harness.Table4,
		"5":           harness.Table5,
		"6":           harness.Table6,
		"fig1b":       func(c harness.Config) []harness.Row { return harness.Fig1(c, false) },
		"fig1c":       func(c harness.Config) []harness.Row { return harness.Fig1(c, true) },
		"fig10":       harness.Fig10,
		"fig11":       harness.Fig11,
		"fig12a":      harness.Fig12a,
		"fig12b":      harness.Fig12b,
		"fig13":       harness.Fig13,
		"loadbalance": harness.LoadBalanceRows,
	}
	order := []string{"fig1b", "fig1c", "3", "4", "5", "6", "fig10", "fig11", "fig12a", "fig12b", "fig13", "loadbalance", "1"}

	var names []string
	if *table == "all" {
		names = order
	} else {
		for _, t := range strings.Split(*table, ",") {
			if _, ok := runners[t]; !ok {
				fmt.Fprintf(os.Stderr, "tables: unknown experiment %q\n", t)
				os.Exit(2)
			}
			names = append(names, t)
		}
	}

	for _, name := range names {
		fmt.Printf("=== experiment %s (scale %d) ===\n", name, cfg.Scale)
		rows := runners[name](cfg)
		harness.SortRows(rows)
		for _, r := range rows {
			fmt.Println(formatRow(r))
		}
		fmt.Println()
	}
}

func formatRow(r harness.Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-12s %-18s %-12s", r.Experiment, r.Dataset, r.App, r.System)
	if r.Failed != "" {
		fmt.Fprintf(&b, " %10s", "("+r.Failed+")")
	} else {
		fmt.Fprintf(&b, " %9.3fs", r.Seconds)
	}
	if r.Count > 0 {
		fmt.Fprintf(&b, " count=%d", r.Count)
	}
	// Deterministic order for extra metrics.
	for _, k := range []string{"explored", "canonicality", "isomorphism", "PO", "Core", "Non-Core", "Other",
		"threads", "speedup", "peakMB", "spreadMs", "min", "max", "goroutines", "heapMB", "allocMBps"} {
		if v, ok := r.Metrics[k]; ok {
			if v >= 1000 {
				fmt.Fprintf(&b, " %s=%.3g", k, v)
			} else {
				fmt.Fprintf(&b, " %s=%.3f", k, v)
			}
		}
	}
	return b.String()
}
