package peregrine

// Morphing correctness harness. Pattern morphing rewrites counting
// batches into cheaper anti-edge-free relatives and recovers the
// requested counts algebraically (internal/plan/morph.go); everything
// here proves the rewrite is invisible: morphed counts must be
// byte-identical to the WithoutMorphing ablation AND to the
// pattern-oblivious baseline enumerators, over every generated pattern
// with up to 5 vertices, solo and batched, on unlabeled and labeled
// graphs. The telemetry invariant — executed work plus reported
// savings equals the ablation's work — is checked against independent
// run pairs, never against the morphing layer's own bookkeeping.

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"peregrine/internal/baseline"
	"peregrine/internal/gen"
	"peregrine/internal/graph"
	"peregrine/internal/pattern"
	"peregrine/internal/plan"
)

// morphGraphs extends the differential graphs with labeled variants:
// morphing must be label-blind in the sense that it never changes any
// count, whatever the graph carries.
func morphGraphs() []struct {
	name string
	g    *graph.Graph
} {
	gs := differentialGraphs()
	gs = append(gs,
		struct {
			name string
			g    *graph.Graph
		}{"er-48-labeled", gen.ErdosRenyi(gen.ERConfig{Vertices: 48, Edges: 110, Seed: 11, Labels: 3})},
		struct {
			name string
			g    *graph.Graph
		}{"rmat-64-labeled", gen.RMAT(gen.RMATConfig{Vertices: 64, Edges: 160, Seed: 13, Labels: 4})},
	)
	return gs
}

// viCensus enumerates every connected vertex set of the given size with
// the baseline DFS and classifies it by its induced unlabeled pattern —
// a label-blind vertex-induced ground truth that works on labeled
// graphs too (the baseline's own Classify folds graph labels in).
func viCensus(g *graph.Graph, size int) map[string]uint64 {
	census := make(map[string]uint64)
	var mu sync.Mutex
	baseline.DFS(g, baseline.DFSOptions{
		Size:    size,
		Threads: 4,
		Visit: func(emb []uint32, _ string) {
			p := pattern.New(len(emb))
			for i := range emb {
				for j := i + 1; j < len(emb); j++ {
					if g.HasEdge(emb[i], emb[j]) {
						p.AddEdge(i, j)
					}
				}
			}
			code := p.CanonicalCode()
			mu.Lock()
			census[code]++
			mu.Unlock()
		},
	})
	return census
}

// TestDifferentialMorphedVertexInduced is the three-way differential:
// for every connected pattern of 3..5 vertices in full vertex-induced
// form, the morphed count, the WithoutMorphing count, and the baseline
// census must agree exactly — solo and as a whole motif batch — on
// unlabeled and labeled graphs.
func TestDifferentialMorphedVertexInduced(t *testing.T) {
	maxSize := 5
	if testing.Short() {
		maxSize = 4
	}
	for _, tc := range morphGraphs() {
		t.Run(tc.name, func(t *testing.T) {
			for size := 3; size <= maxSize; size++ {
				census := viCensus(tc.g, size)
				skels := pattern.GenerateAllVertexInduced(size)
				vips := make([]*Pattern, len(skels))
				for i, s := range skels {
					vips[i] = pattern.VertexInduced(s)
				}

				morphed, ms, err := CountManyWithStats(tc.g, vips, WithThreads(4))
				if err != nil {
					t.Fatal(err)
				}
				direct, ms0, err := CountManyWithStats(tc.g, vips, WithThreads(4), WithoutMorphing())
				if err != nil {
					t.Fatal(err)
				}
				if ms0.Morph.Active() {
					t.Fatalf("size %d: WithoutMorphing run reports morphing: %+v", size, ms0.Morph)
				}
				for i := range vips {
					want := census[skels[i].CanonicalCode()]
					if morphed[i] != want || direct[i] != want {
						t.Errorf("size %d pattern %v: morphed = %d, direct = %d, baseline = %d",
							size, skels[i], morphed[i], direct[i], want)
					}
					// Solo: a single-pattern batch takes the same morphing
					// decision machinery and must agree too.
					solo, err := CountMany(tc.g, []*Pattern{vips[i]}, WithThreads(4))
					if err != nil {
						t.Fatal(err)
					}
					if solo[0] != want {
						t.Errorf("size %d pattern %v solo: morphed-path = %d, baseline = %d",
							size, skels[i], solo[0], want)
					}
				}
				// Per keeps the batch's shape through morphing: one row per
				// requested pattern, with the recovered matches.
				if len(ms.Per) != len(vips) {
					t.Fatalf("size %d: %d Per rows for %d patterns", size, len(ms.Per), len(vips))
				}
				for i := range vips {
					if ms.Per[i].Matches != morphed[i] {
						t.Errorf("size %d row %d: Per.Matches = %d, counts = %d",
							size, i, ms.Per[i].Matches, morphed[i])
					}
				}
			}
		})
	}
}

// TestDifferentialMorphedLabeledPatterns checks fully labeled
// vertex-induced patterns on labeled graphs against the label-aware
// baseline: the recovery algebra commutes with label constraints.
func TestDifferentialMorphedLabeledPatterns(t *testing.T) {
	g := gen.ErdosRenyi(gen.ERConfig{Vertices: 48, Edges: 110, Seed: 11, Labels: 3})
	for _, skel := range pattern.GenerateAllVertexInduced(4) {
		for variant := 0; variant < 3; variant++ {
			lab := skel.Clone()
			for v := 0; v < lab.N(); v++ {
				lab.SetLabel(v, pattern.Label((v+variant)%3))
			}
			want, _ := baseline.PatternCountDFS(g, lab, 4)
			vip := pattern.VertexInduced(lab)
			morphed, err := CountMany(g, []*Pattern{vip}, WithThreads(4))
			if err != nil {
				t.Fatal(err)
			}
			direct, err := CountMany(g, []*Pattern{vip}, WithThreads(4), WithoutMorphing())
			if err != nil {
				t.Fatal(err)
			}
			if morphed[0] != want || direct[0] != want {
				t.Errorf("labeled %v: morphed = %d, direct = %d, baseline = %d",
					lab, morphed[0], direct[0], want)
			}
		}
	}
}

// TestMorphMetamorphicBatches: random subsets, duplicates, and
// shuffles of the vertex-induced pattern pool must count exactly like
// independent per-pattern runs — batching and morphing are not allowed
// to couple patterns' results.
func TestMorphMetamorphicBatches(t *testing.T) {
	maxSize := 5
	trials := 8
	if testing.Short() {
		maxSize, trials = 4, 4
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"er-48", gen.ErdosRenyi(gen.ERConfig{Vertices: 48, Edges: 110, Seed: 11})},
		{"er-48-labeled", gen.ErdosRenyi(gen.ERConfig{Vertices: 48, Edges: 110, Seed: 11, Labels: 3})},
	}
	var pool []*Pattern
	for size := 3; size <= maxSize; size++ {
		for _, s := range pattern.GenerateAllVertexInduced(size) {
			pool = append(pool, pattern.VertexInduced(s))
		}
	}
	for _, tc := range graphs {
		t.Run(tc.name, func(t *testing.T) {
			// Reference: each pool pattern counted alone, morphing off.
			ref := make([]uint64, len(pool))
			for i, p := range pool {
				c, err := CountMany(tc.g, []*Pattern{p}, WithThreads(4), WithoutMorphing())
				if err != nil {
					t.Fatal(err)
				}
				ref[i] = c[0]
			}
			rng := rand.New(rand.NewSource(77))
			for trial := 0; trial < trials; trial++ {
				k := 2 + rng.Intn(8)
				idx := make([]int, k)
				batch := make([]*Pattern, k)
				for j := range idx {
					idx[j] = rng.Intn(len(pool)) // with replacement: duplicates welcome
					batch[j] = pool[idx[j]]
				}
				got, err := CountMany(tc.g, batch, WithThreads(4))
				if err != nil {
					t.Fatal(err)
				}
				for j := range idx {
					if got[j] != ref[idx[j]] {
						t.Errorf("trial %d slot %d (%v): batch = %d, solo = %d",
							trial, j, batch[j], got[j], ref[idx[j]])
					}
				}
			}
		})
	}
}

// TestMorphTelemetryInvariant pins the morphing telemetry to
// independently measured ablation runs: executed work plus savings must
// equal the direct run's work, for trie program steps and for runtime
// adjacency intersections, and the motif-batch savings must clear the
// bar the morphing layer exists for.
func TestMorphTelemetryInvariant(t *testing.T) {
	size := 5
	if testing.Short() {
		size = 4
	}
	g := gen.ErdosRenyi(gen.ERConfig{Vertices: 64, Edges: 140, Seed: 12})
	var vips []*Pattern
	for _, s := range pattern.GenerateAllVertexInduced(size) {
		vips = append(vips, pattern.VertexInduced(s))
	}
	morphed, ms, err := CountManyWithStats(g, vips, WithThreads(4))
	if err != nil {
		t.Fatal(err)
	}
	direct, ms0, err := CountManyWithStats(g, vips, WithThreads(4), WithoutMorphing())
	if err != nil {
		t.Fatal(err)
	}
	for i := range vips {
		if morphed[i] != direct[i] {
			t.Fatalf("pattern %d: morphed = %d, direct = %d", i, morphed[i], direct[i])
		}
	}
	if !ms.Morph.Active() {
		t.Fatalf("size-%d motif batch did not morph: %+v", size, ms.Morph)
	}

	// Trie program steps: the runtime's StepsMorphed/StepsDirect must
	// equal what the two executions actually compiled to, and
	// morphed + saved == direct with saved measured across the pair.
	if ms.Morph.StepsMorphed != ms.Share.ProgramSteps {
		t.Errorf("stepsMorphed = %d, executed trie has %d program steps",
			ms.Morph.StepsMorphed, ms.Share.ProgramSteps)
	}
	if ms.Morph.StepsDirect != ms0.Share.ProgramSteps {
		t.Errorf("stepsDirect = %d, ablation trie has %d program steps",
			ms.Morph.StepsDirect, ms0.Share.ProgramSteps)
	}
	stepsSaved := ms0.Share.ProgramSteps - ms.Share.ProgramSteps
	if ms.Morph.StepsMorphed+stepsSaved != ms.Morph.StepsDirect {
		t.Errorf("steps: morphed %d + saved %d != direct %d",
			ms.Morph.StepsMorphed, stepsSaved, ms.Morph.StepsDirect)
	}

	// Core-traversal adjacency intersections (Share.Intersections): the
	// figure morphing exists to shrink — anti-edge patterns inflate the
	// pattern core, so the direct batch's trie grinds through far more
	// full-adjacency-list intersections. Counting runs are deterministic,
	// so the ablation pair is an exact measurement, and
	// MorphStats.IntersectionsSaved is defined as exactly this
	// harness-measured difference (never fabricated at runtime).
	im, id := ms.Share.Intersections, ms0.Share.Intersections
	if im > id {
		t.Fatalf("morphed run did MORE core intersections: %d > %d", im, id)
	}
	ms.Morph.IntersectionsSaved = id - im
	if im+ms.Morph.IntersectionsSaved != id {
		t.Errorf("intersections: morphed %d + saved %d != direct %d",
			im, ms.Morph.IntersectionsSaved, id)
	}
	if !testing.Short() && id*10 < im*13 {
		t.Errorf("5-motif batch saves only %d of %d core intersections, want >= 1.3x", id-im, id)
	}

	// The trade morphing makes is explicit in the batch-wide totals: the
	// anti-edge-free relatives complete more matches, so completion-side
	// intersections (tiny, pre-narrowed candidate lists) may well RISE.
	// MultiStats.Intersections keeps that honest — unlike a Per sum, it
	// survives recovery's re-synthesized rows — and on the direct run,
	// where no rows are re-synthesized, the two accountings must agree.
	var perSum uint64
	for _, s := range ms0.Per {
		perSum += s.Intersections
	}
	if ms0.Intersections != perSum {
		t.Errorf("direct batch Intersections = %d, Per rows sum to %d", ms0.Intersections, perSum)
	}
	if ms.Intersections == 0 {
		t.Error("morphed batch reports zero completion intersections")
	}
}

// TestMorphBypassesEdgeInduced: anti-edge-free batches run exactly as
// given — no rewrite, no telemetry.
func TestMorphBypassesEdgeInduced(t *testing.T) {
	g := gen.ErdosRenyi(gen.ERConfig{Vertices: 48, Edges: 110, Seed: 11})
	batch := []*Pattern{pattern.Clique(3), pattern.Chain(4), pattern.Star(4)}
	morphed, ms, err := CountManyWithStats(g, batch, WithThreads(4))
	if err != nil {
		t.Fatal(err)
	}
	if ms.Morph.Active() || ms.Morph.MorphsChosen != 0 {
		t.Errorf("edge-induced batch reports morphing: %+v", ms.Morph)
	}
	direct, err := CountMany(g, batch, WithThreads(4), WithoutMorphing())
	if err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		if morphed[i] != direct[i] {
			t.Errorf("pattern %v: %d != %d", batch[i], morphed[i], direct[i])
		}
	}
}

// FuzzMorphRecovery fuzzes the recovery algebra itself: for any parsed
// morphable pattern, evaluating MorphTerms' relation over direct engine
// counts of the relatives must reproduce the pattern's own direct
// count, and every direct count must match a callback-enumerated one;
// the cost-model path (CountMany, whichever way it decides) must
// agree; and when the pattern is the full vertex-induced form of its
// skeleton, the pattern-oblivious baseline census must agree too.
func FuzzMorphRecovery(f *testing.F) {
	f.Add("0-1 1-2 0!2")
	f.Add("0-1 1-2 2-3 0!2 0!3 1!3")
	f.Add("0-1 1-2 2-0 0-3 1!3 2!3")
	f.Add("0-1 0-2 0-3 0-4 1!2 3!4")
	f.Add("0-1 1-2 2-3 3-4 4-0 0!2 1!3")
	g := gen.ErdosRenyi(gen.ERConfig{Vertices: 32, Edges: 70, Seed: 21})
	f.Fuzz(func(t *testing.T, text string) {
		p, err := pattern.Parse(text)
		if err != nil || p.Validate() != nil || !p.ConnectedRegular() {
			t.Skip()
		}
		if p.N() < 3 || p.N() > 5 || !plan.Morphable(p) {
			t.Skip()
		}
		for v := 0; v < p.N(); v++ {
			if p.LabelOf(v) != pattern.Wildcard {
				t.Skip() // the fuzz graph is unlabeled
			}
		}

		count := func(q *Pattern) uint64 {
			c, err := CountMany(g, []*Pattern{q}, WithThreads(2), WithoutMorphing())
			if err != nil {
				t.Fatalf("count %v: %v", q, err)
			}
			// Count-only runs complete their trailing levels in closed
			// form; a callback run enumerates every match instead, so it
			// is an oracle independent of that shortcut.
			var seen atomic.Uint64
			if _, err := ForEachMatch(g, q, func(*Ctx, *Match) { seen.Add(1) }, WithThreads(2)); err != nil {
				t.Fatalf("enumerate %v: %v", q, err)
			}
			if seen.Load() != c[0] {
				t.Fatalf("%v: count-only = %d, enumerated = %d", q, c[0], seen.Load())
			}
			return c[0]
		}
		want := count(p)

		// The algebra, evaluated directly from MorphTerms.
		terms, div := plan.MorphTerms(p)
		if len(terms) == 0 || div <= 0 {
			t.Fatalf("morphable %v expanded to no terms", p)
		}
		sum := int64(0)
		for _, tm := range terms {
			sum += tm.Coef * int64(count(tm.Pat))
		}
		if sum < 0 || sum%div != 0 {
			t.Fatalf("%v: relation sum %d not a clean multiple of %d", p, sum, div)
		}
		if got := uint64(sum / div); got != want {
			t.Fatalf("%v: recovered = %d, direct = %d", p, got, want)
		}

		// The production path, whatever the cost model picks.
		if got, err := CountMany(g, []*Pattern{p}, WithThreads(2)); err != nil || got[0] != want {
			t.Fatalf("%v: morphed-path = %v (%v), direct = %d", p, got, err, want)
		}

		// Full vertex-induced forms additionally have a pattern-oblivious
		// ground truth: the baseline census of connected vertex sets.
		skel := p.Clone()
		for u := 0; u < p.N(); u++ {
			for v := u + 1; v < p.N(); v++ {
				if p.EdgeKindOf(u, v) == pattern.Anti {
					skel.RemoveEdge(u, v)
				}
			}
		}
		if pattern.VertexInduced(skel).CanonicalCode() == p.CanonicalCode() {
			if base, _ := baseline.PatternCountDFS(g, skel, 2); base != want {
				t.Fatalf("%v: baseline census = %d, engine = %d", p, base, want)
			}
		}
	})
}
