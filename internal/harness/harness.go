// Package harness defines the experiment runners that regenerate every
// table and figure of the paper's evaluation (§6): the workloads, the
// dataset stand-ins at benchmark scale, the baseline-system
// configurations, and structured result rows. Both cmd/tables and the
// repository's bench_test.go drive experiments through this package so
// the rows cmd/tables prints and the benchmarks stay in sync.
package harness

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"time"

	"sync"

	"peregrine/internal/baseline"
	"peregrine/internal/core"
	"peregrine/internal/fsm"
	"peregrine/internal/gen"
	"peregrine/internal/graph"
	"peregrine/internal/pattern"
)

// Config controls experiment scale and parallelism.
type Config struct {
	// Scale multiplies dataset sizes. 1 is the benchmark default: every
	// cell completes in seconds on a laptop. The PEREGRINE_SCALE
	// environment variable overrides it.
	Scale int
	// Threads for the pattern-aware engine and parallel baselines; 0
	// means GOMAXPROCS.
	Threads int
	// Budget caps baseline resource usage: BFS/RStream abort with "oom"
	// and DFS with "limit" beyond it, reproducing the paper's —/× cells
	// without exhausting the machine. Expressed in stored embeddings /
	// tuples (BFS, RStream) and explored embeddings (DFS).
	Budget int
	// Deadline bounds individual PRG-U ablation cells; runs that exceed
	// it report "limit", like the paper's PRG-U-on-Orkut 4-motifs, which
	// "did not finish ... within 5 hours". Zero means no deadline.
	Deadline time.Duration
}

// countWithDeadline counts matches, stopping early once the deadline
// passes. The bool result reports whether the run was cut short.
func countWithDeadline(g *graph.Graph, p *pattern.Pattern, opts core.Options, d time.Duration) (uint64, bool) {
	if d <= 0 {
		n, err := core.Count(g, p, opts)
		if err != nil {
			panic(err)
		}
		return n, false
	}
	start := time.Now()
	cut := false
	var n uint64
	st, err := core.Run(g, p, func(ctx *core.Ctx, m *core.Match) {
		n++
		if n%8192 == 0 && time.Since(start) > d {
			cut = true
			ctx.Stop()
		}
	}, opts)
	if err != nil {
		panic(err)
	}
	_ = st
	return n, cut
}

// Default returns the standard configuration, honoring PEREGRINE_SCALE.
func Default() Config {
	cfg := Config{Scale: 1, Budget: 4_000_000, Deadline: 20 * time.Second}
	if s := os.Getenv("PEREGRINE_SCALE"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			cfg.Scale = v
		}
	}
	return cfg
}

// Row is one measured cell of a table or figure.
type Row struct {
	Experiment string // "table3", "fig1b", ...
	App        string // "4-cliques", "3-motifs", "fsm τ=20", "match p1", ...
	Dataset    string
	System     string // "PRG", "PRG-U", "ABQ", "FCL", "RS", "GM"
	Seconds    float64
	Count      uint64
	Failed     string             // "", "oom", or "limit" (the paper's — and ×)
	Metrics    map[string]float64 // experiment-specific extras
}

// String renders the row for terminal tables.
func (r Row) String() string {
	cell := fmt.Sprintf("%8.3fs", r.Seconds)
	if r.Failed != "" {
		cell = fmt.Sprintf("%9s", "("+r.Failed+")")
	}
	return fmt.Sprintf("%-8s %-14s %-16s %-6s %s count=%d", r.Experiment, r.Dataset, r.App, r.System, cell, r.Count)
}

// Datasets used by the experiments. Sizes are tuned so that the
// pattern-aware engine finishes every cell in well under a second at
// scale 1 and the baselines either finish in seconds or hit the budget —
// preserving the paper's relative-density ordering
// (patents flat/sparse < mico < orkut dense; friendster large/sparse).
func BenchDataset(name string, scale int) *graph.Graph {
	s := uint32(scale)
	switch name {
	case "mico":
		return gen.RMAT(gen.RMATConfig{Vertices: 1024 * s, Edges: 9000 * uint64(s), Seed: 1, Labels: 29})
	case "patents":
		// Patents is nearly degree-flat but clustered; a low-skew RMAT
		// keeps cliques present (plain ER has none).
		return gen.RMAT(gen.RMATConfig{Vertices: 2048 * s, Edges: 11000 * uint64(s), A: 0.45, B: 0.22, C: 0.22, Seed: 2})
	case "patents-labeled":
		return gen.RMAT(gen.RMATConfig{Vertices: 2048 * s, Edges: 11000 * uint64(s), A: 0.45, B: 0.22, C: 0.22, Seed: 2, Labels: 37})
	case "orkut":
		return gen.RMAT(gen.RMATConfig{Vertices: 1024 * s, Edges: 24000 * uint64(s), Seed: 3})
	case "orkut-labeled":
		// Synthetic labels 1-6 with uniform probability, as §6.1 does for
		// p2 matching on unlabeled graphs.
		return gen.RMAT(gen.RMATConfig{Vertices: 1024 * s, Edges: 24000 * uint64(s), Seed: 3, Labels: 6})
	case "mico-p2":
		return gen.RMAT(gen.RMATConfig{Vertices: 1024 * s, Edges: 9000 * uint64(s), Seed: 1, Labels: 6})
	case "friendster":
		return gen.RMAT(gen.RMATConfig{Vertices: 4096 * s, Edges: 40000 * uint64(s), Seed: 4})
	case "friendster-labeled":
		return gen.RMAT(gen.RMATConfig{Vertices: 4096 * s, Edges: 40000 * uint64(s), Seed: 4, Labels: 6})
	default:
		panic("harness: unknown dataset " + name)
	}
}

func timeIt(f func()) float64 {
	t0 := time.Now()
	f()
	return time.Since(t0).Seconds()
}

func (c Config) coreOpts() core.Options {
	return core.Options{Threads: c.Threads}
}

// --- Figure 1b / 1c: profiling pattern-oblivious systems ---------------

// Fig1 profiles 4-clique counting (fig1b) or 3-motif counting (fig1c) on
// the patents stand-in, reporting for each system the total matches
// explored, canonicality checks, and isomorphism checks, plus the result
// size — the paper's core motivation numbers.
func Fig1(cfg Config, motifs bool) []Row {
	g := BenchDataset("patents", cfg.Scale)
	exp, app := "fig1b", "4-cliques"
	if motifs {
		exp, app = "fig1c", "3-motifs"
	}
	var rows []Row
	add := func(system string, secs float64, count uint64, m baseline.Metrics) {
		failed := ""
		if m.Aborted {
			failed = m.AbortReason
		}
		rows = append(rows, Row{
			Experiment: exp, App: app, Dataset: "patents", System: system,
			Seconds: secs, Count: count, Failed: failed,
			Metrics: map[string]float64{
				"explored":     float64(m.Explored),
				"canonicality": float64(m.CanonicalityChecks),
				"isomorphism":  float64(m.IsomorphismChecks),
			},
		})
	}

	if motifs {
		var rsCounts, bfsCounts, dfsCounts map[string]uint64
		var rsM, bfsM, dfsM baseline.Metrics
		rsSec := timeIt(func() { rsCounts, rsM = baseline.MotifCountsRStream(g, 3) })
		add("RS", rsSec, total(rsCounts), rsM)
		bfsSec := timeIt(func() { bfsCounts, bfsM = baseline.MotifCountsBFS(g, 3) })
		add("ABQ", bfsSec, total(bfsCounts), bfsM)
		dfsSec := timeIt(func() { dfsCounts, dfsM = baseline.MotifCountsDFS(g, 3, cfg.Threads) })
		add("FCL", dfsSec, total(dfsCounts), dfsM)
	} else {
		var rsN, bfsN, dfsN uint64
		var rsM, bfsM, dfsM baseline.Metrics
		rsSec := timeIt(func() { rsN, rsM = baseline.CliqueCountRStream(g, 4) })
		add("RS", rsSec, rsN, rsM)
		bfsSec := timeIt(func() { bfsN, bfsM = baseline.CliqueCountBFS(g, 4) })
		add("ABQ", bfsSec, bfsN, bfsM)
		dfsSec := timeIt(func() { dfsN, dfsM = baseline.CliqueCountDFS(g, 4, cfg.Threads) })
		add("FCL", dfsSec, dfsN, dfsM)
	}

	// Peregrine for reference: pattern-aware exploration generates only
	// matching subgraphs and performs zero canonicality/isomorphism
	// checks during exploration.
	var prgCount uint64
	var prgStats core.Stats
	prgSec := timeIt(func() {
		if motifs {
			for _, m := range pattern.GenerateAllVertexInduced(3) {
				st, err := core.Run(g, pattern.VertexInduced(m), nil, cfg.coreOpts())
				if err != nil {
					panic(err)
				}
				prgCount += st.Matches
				prgStats.CoreMatches += st.CoreMatches
			}
		} else {
			st, err := core.Run(g, pattern.Clique(4), nil, cfg.coreOpts())
			if err != nil {
				panic(err)
			}
			prgCount, prgStats = st.Matches, st
		}
	})
	rows = append(rows, Row{
		Experiment: exp, App: app, Dataset: "patents", System: "PRG",
		Seconds: prgSec, Count: prgCount,
		Metrics: map[string]float64{
			"explored":     float64(prgStats.CoreMatches), // partial matches: core matches only
			"canonicality": 0,
			"isomorphism":  0,
		},
	})
	return rows
}

func total(m map[string]uint64) uint64 {
	var t uint64
	for _, v := range m {
		t += v
	}
	return t
}

// --- Table 3: Peregrine vs breadth-first systems (Arabesque, RStream) --

// Table3 runs motif counting, clique counting, and FSM for Peregrine,
// the Arabesque-style BFS system, and the RStream-style join system.
func Table3(cfg Config) []Row {
	var rows []Row
	add := func(app, ds, system string, secs float64, count uint64, failed string) {
		rows = append(rows, Row{Experiment: "table3", App: app, Dataset: ds, System: system,
			Seconds: secs, Count: count, Failed: failed})
	}
	motifSizes := map[string]int{"3-motifs": 3, "4-motifs": 4}
	for _, ds := range []string{"mico", "patents", "orkut"} {
		g := BenchDataset(ds, cfg.Scale)
		for app, size := range motifSizes {
			size := size
			var prgN uint64
			prgSec := timeIt(func() { prgN = prgMotifs(g, size, cfg) })
			add(app, ds, "PRG", prgSec, prgN, "")

			var bfsC map[string]uint64
			var bfsM baseline.Metrics
			bfsSec := timeIt(func() {
				bfsC, bfsM = motifsBFSBudget(g, size, cfg.Budget)
			})
			add(app, ds, "ABQ", bfsSec, total(bfsC), failReason(bfsM))

			var rsC map[string]uint64
			var rsM baseline.Metrics
			rsSec := timeIt(func() { rsC, rsM = motifsRStreamBudget(g, size, cfg.Budget) })
			add(app, ds, "RS", rsSec, total(rsC), failReason(rsM))
		}
		for _, k := range []int{3, 4, 5} {
			k := k
			app := fmt.Sprintf("%d-cliques", k)
			var prgN uint64
			prgSec := timeIt(func() {
				var err error
				prgN, err = core.Count(g, pattern.Clique(k), cfg.coreOpts())
				if err != nil {
					panic(err)
				}
			})
			add(app, ds, "PRG", prgSec, prgN, "")

			var bfsN uint64
			var bfsM baseline.Metrics
			bfsSec := timeIt(func() {
				bfsM = baseline.BFS(g, baseline.BFSOptions{
					Size:      k,
					Filter:    cliqueFilter(g),
					Visit:     func([]uint32, string) { bfsN++ },
					MaxStored: cfg.Budget,
				})
			})
			add(app, ds, "ABQ", bfsSec, bfsN, failReason(bfsM))

			var rsN uint64
			var rsM baseline.Metrics
			rsSec := timeIt(func() {
				rsM = baseline.RStream(g, baseline.RStreamOptions{
					Size: k, CliqueFilter: true,
					Visit:   func([]uint32, string) { rsN++ },
					MaxRows: cfg.Budget,
				})
			})
			add(app, ds, "RS", rsSec, rsN, failReason(rsM))
		}
	}
	// FSM with a support sweep on the labeled datasets (the paper's
	// 2K/3K/4K-FSM on Mico, 20K..23K-FSM on Patents, scaled to our
	// dataset sizes).
	for _, ds := range []string{"mico", "patents-labeled"} {
		g := BenchDataset(ds, cfg.Scale)
		for _, tau := range fsmSupports(ds, cfg) {
			app := fmt.Sprintf("fsm τ=%d", tau)
			prgN, prgSec := prgFSM(g, 3, tau, cfg)
			add(app, ds, "PRG", prgSec, uint64(prgN), "")
			var abqN int
			var abqM baseline.Metrics
			abqSec := timeIt(func() { abqN, abqM = baseline.FSMBFSBudget(g, 3, tau, cfg.Budget) })
			add(app, ds, "ABQ", abqSec, uint64(abqN), failReason(abqM))
		}
	}
	return rows
}

// fsmSupports picks the support sweep per dataset. The stand-ins' MNI
// distributions fall off quickly (at scale 1, mico keeps ~all 411
// single-edge labelings at tau=3 and none at tau=20), so the sweep spans
// the transition — the paper's low-support regime where pattern-oblivious
// FSM collapses sits at the bottom of the range.
func fsmSupports(ds string, cfg Config) []int {
	if ds == "mico" {
		return []int{8 * cfg.Scale, 12 * cfg.Scale, 16 * cfg.Scale}
	}
	return []int{8 * cfg.Scale, 12 * cfg.Scale}
}

func prgMotifs(g *graph.Graph, size int, cfg Config) uint64 {
	var totalN uint64
	for _, m := range pattern.GenerateAllVertexInduced(size) {
		n, err := core.Count(g, pattern.VertexInduced(m), cfg.coreOpts())
		if err != nil {
			panic(err)
		}
		totalN += n
	}
	return totalN
}

func prgFSM(g *graph.Graph, edges, tau int, cfg Config) (int, float64) {
	n := 0
	secs := timeIt(func() {
		res, err := fsm.Mine(g, edges, tau, cfg.coreOpts())
		if err != nil {
			panic(err)
		}
		n = len(res.Frequent)
	})
	return n, secs
}

func cliqueFilter(g *graph.Graph) func([]uint32) bool {
	return func(emb []uint32) bool {
		last := emb[len(emb)-1]
		for _, v := range emb[:len(emb)-1] {
			if !g.HasEdge(v, last) {
				return false
			}
		}
		return true
	}
}

func failReason(m baseline.Metrics) string {
	if m.Aborted {
		return m.AbortReason
	}
	return ""
}

func motifsBFSBudget(g *graph.Graph, size, budget int) (map[string]uint64, baseline.Metrics) {
	counts := make(map[string]uint64)
	m := baseline.BFS(g, baseline.BFSOptions{
		Size:      size,
		Classify:  true,
		Visit:     func(_ []uint32, code string) { counts[code]++ },
		MaxStored: budget,
	})
	return counts, m
}

func motifsRStreamBudget(g *graph.Graph, size, budget int) (map[string]uint64, baseline.Metrics) {
	counts := make(map[string]uint64)
	m := baseline.RStream(g, baseline.RStreamOptions{
		Size:     size,
		Classify: true,
		Visit:    func(_ []uint32, code string) { counts[code]++ },
		MaxRows:  budget,
	})
	return counts, m
}

// --- Table 4: Peregrine vs depth-first Fractal --------------------------

// Table4 runs the Table 3 workloads plus pattern matching p1–p6 against
// the Fractal-style DFS system.
func Table4(cfg Config) []Row {
	var rows []Row
	add := func(app, ds, system string, secs float64, count uint64, failed string) {
		rows = append(rows, Row{Experiment: "table4", App: app, Dataset: ds, System: system,
			Seconds: secs, Count: count, Failed: failed})
	}
	for _, ds := range []string{"mico", "patents", "orkut"} {
		g := BenchDataset(ds, cfg.Scale)
		for _, size := range []int{3, 4} {
			app := fmt.Sprintf("%d-motifs", size)
			var prgN uint64
			prgSec := timeIt(func() { prgN = prgMotifs(g, size, cfg) })
			add(app, ds, "PRG", prgSec, prgN, "")
			var dfsC map[string]uint64
			var dfsM baseline.Metrics
			dfsSec := timeIt(func() { dfsC, dfsM = dfsMotifsBudget(g, size, cfg) })
			add(app, ds, "FCL", dfsSec, total(dfsC), failReason(dfsM))
		}
		for _, k := range []int{3, 4, 5} {
			app := fmt.Sprintf("%d-cliques", k)
			var prgN uint64
			prgSec := timeIt(func() {
				var err error
				prgN, err = core.Count(g, pattern.Clique(k), cfg.coreOpts())
				if err != nil {
					panic(err)
				}
			})
			add(app, ds, "PRG", prgSec, prgN, "")
			var dfsN uint64
			var dfsM baseline.Metrics
			dfsSec := timeIt(func() {
				dfsM = baseline.DFS(g, baseline.DFSOptions{
					Size: k, Threads: cfg.Threads,
					Filter:      cliqueFilter(g),
					Visit:       func([]uint32, string) {},
					MaxExplored: uint64(cfg.Budget),
				})
				dfsN = dfsM.Results
			})
			add(app, ds, "FCL", dfsSec, dfsN, failReason(dfsM))
		}
		// Pattern matching p1–p6 (vertex-induced semantics for both
		// systems, so their counts compare row by row in
		// `go run ./cmd/tables -table 4`).
		for _, pname := range []string{"p1", "p2", "p3", "p4", "p5", "p6"} {
			p := evalPattern(pname)
			gg := g
			if p.Labeled() {
				gg = BenchDataset(labeledVariant(ds), cfg.Scale)
			}
			app := "match " + pname
			var prgN uint64
			prgSec := timeIt(func() {
				var err error
				prgN, err = core.Count(gg, pattern.VertexInduced(p), cfg.coreOpts())
				if err != nil {
					panic(err)
				}
			})
			add(app, ds, "PRG", prgSec, prgN, "")
			var dfsN uint64
			var dfsM baseline.Metrics
			dfsSec := timeIt(func() {
				dfsN, dfsM = patternCountDFSBudget(gg, p, cfg)
			})
			add(app, ds, "FCL", dfsSec, dfsN, failReason(dfsM))
		}
	}
	return rows
}

func labeledVariant(ds string) string {
	switch ds {
	case "mico":
		return "mico-p2"
	case "patents":
		return "patents-labeled"
	case "orkut":
		return "orkut-labeled"
	case "friendster":
		return "friendster-labeled"
	}
	return ds
}

func dfsMotifsBudget(g *graph.Graph, size int, cfg Config) (map[string]uint64, baseline.Metrics) {
	var mu protected
	mu.m = make(map[string]uint64)
	met := baseline.DFS(g, baseline.DFSOptions{
		Size: size, Threads: cfg.Threads, Classify: true,
		Visit:       func(_ []uint32, code string) { mu.inc(code) },
		MaxExplored: uint64(cfg.Budget),
	})
	return mu.m, met
}

func patternCountDFSBudget(g *graph.Graph, p *pattern.Pattern, cfg Config) (uint64, baseline.Metrics) {
	target := p.CanonicalCode()
	var mu protected
	mu.m = make(map[string]uint64)
	met := baseline.DFS(g, baseline.DFSOptions{
		Size: p.N(), Threads: cfg.Threads, Classify: true,
		Visit: func(_ []uint32, code string) {
			if code == target {
				mu.inc("n")
			}
		},
		MaxExplored: uint64(cfg.Budget),
	})
	return mu.m["n"], met
}

// --- Table 5: Peregrine vs G-Miner --------------------------------------

// Table5 runs 3-clique counting and labeled p2 matching against the
// G-Miner-style task system.
func Table5(cfg Config) []Row {
	var rows []Row
	for _, ds := range []string{"mico", "patents", "orkut", "friendster"} {
		g := BenchDataset(ds, cfg.Scale)
		var prgN uint64
		prgSec := timeIt(func() {
			var err error
			prgN, err = core.Count(g, pattern.Clique(3), cfg.coreOpts())
			if err != nil {
				panic(err)
			}
		})
		rows = append(rows, Row{Experiment: "table5", App: "3-cliques", Dataset: ds, System: "PRG", Seconds: prgSec, Count: prgN})

		var gmN uint64
		gmSec := timeIt(func() { gmN, _ = baseline.GMinerTriangles(g, cfg.Threads) })
		rows = append(rows, Row{Experiment: "table5", App: "3-cliques", Dataset: ds, System: "GM", Seconds: gmSec, Count: gmN})

		lg := BenchDataset(labeledVariant(ds), cfg.Scale)
		p2 := evalPattern("p2")
		var prgP2 uint64
		prgP2Sec := timeIt(func() {
			var err error
			prgP2, err = core.Count(lg, p2, cfg.coreOpts())
			if err != nil {
				panic(err)
			}
		})
		rows = append(rows, Row{Experiment: "table5", App: "match p2", Dataset: ds, System: "PRG", Seconds: prgP2Sec, Count: prgP2})

		var gmP2 uint64
		gmP2Sec := timeIt(func() {
			idx := baseline.BuildGMinerIndex(lg)
			gmP2, _ = baseline.GMinerMatchP2(lg, idx, p2, cfg.Threads)
		})
		rows = append(rows, Row{Experiment: "table5", App: "match p2", Dataset: ds, System: "GM", Seconds: gmP2Sec, Count: gmP2})
	}
	return rows
}

// --- Table 6: structural constraints and existence queries --------------

// Table6 runs the anti-vertex pattern p7, the anti-edge pattern p8, and
// the 14-clique existence query on every dataset. Cells are bounded by
// cfg.Deadline: an exhaustive search that rules a 14-clique *out* can be
// combinatorially explosive on dense synthetic graphs, so runs cut short
// report "limit".
func Table6(cfg Config) []Row {
	var rows []Row
	opts := cfg.coreOpts()
	opts.Deadline = cfg.Deadline
	for _, ds := range []string{"mico", "patents", "orkut", "friendster"} {
		g := BenchDataset(ds, cfg.Scale)
		for _, pname := range []string{"p7", "p8"} {
			p := evalPattern(pname)
			var st core.Stats
			secs := timeIt(func() {
				var err error
				st, err = core.Run(g, p, nil, opts)
				if err != nil {
					panic(err)
				}
			})
			app := "anti-vertex p7"
			if pname == "p8" {
				app = "anti-edge p8"
			}
			failed := ""
			if st.Stopped {
				failed = "limit"
			}
			rows = append(rows, Row{Experiment: "table6", App: app, Dataset: ds, System: "PRG",
				Seconds: secs, Count: st.Matches, Failed: failed})
		}
		found := false
		var st core.Stats
		secs := timeIt(func() {
			var err error
			st, err = core.Run(g, pattern.Clique(14), func(ctx *core.Ctx, m *core.Match) {
				found = true
				ctx.Stop()
			}, opts)
			if err != nil {
				panic(err)
			}
		})
		n := uint64(0)
		if found {
			n = 1
		}
		failed := ""
		if st.Stopped && !found {
			failed = "limit" // deadline hit before the search space was exhausted
		}
		rows = append(rows, Row{Experiment: "table6", App: "exists 14-clique", Dataset: ds, System: "PRG",
			Seconds: secs, Count: n, Failed: failed})
	}
	return rows
}

// evalPattern mirrors the root package's Figure 9 patterns; duplicated
// here because internal packages cannot import the module root.
func evalPattern(name string) *pattern.Pattern {
	switch name {
	case "p1":
		return pattern.MustParse("0-1 1-2 2-3 3-0 0-2")
	case "p2":
		return pattern.MustParse("0-1 1-2 2-0 2-3 [0:1] [1:2] [2:3] [3:4]")
	case "p3":
		return pattern.MustParse("0-1 1-2 2-3 3-0 0-4")
	case "p4":
		return pattern.MustParse("0-1 1-2 2-3 3-4 4-0 1-4")
	case "p5":
		return pattern.MustParse("0-1 1-2 2-0 2-3 3-4 4-2")
	case "p6":
		p := pattern.Clique(5)
		p.RemoveEdge(3, 4)
		return p
	case "p7":
		p := pattern.Clique(3)
		a := p.AddVertex()
		for v := 0; v < 3; v++ {
			p.AddAntiEdge(v, a)
		}
		return p
	case "p8":
		return pattern.MustParse("0-1 1-2 2-3 3-0 0-2 1!3")
	}
	panic("harness: unknown pattern " + name)
}

type protected struct {
	mu sync.Mutex
	m  map[string]uint64
}

func (p *protected) inc(code string) {
	p.mu.Lock()
	p.m[code]++
	p.mu.Unlock()
}

// SortRows orders rows for stable printing.
func SortRows(rows []Row) {
	sort.SliceStable(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Dataset != b.Dataset {
			return a.Dataset < b.Dataset
		}
		if a.App != b.App {
			return a.App < b.App
		}
		return a.System < b.System
	})
}
