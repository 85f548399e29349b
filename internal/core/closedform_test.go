package core

import (
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"peregrine/internal/gen"
	"peregrine/internal/graph"
	"peregrine/internal/pattern"
	"peregrine/internal/plan"
	"peregrine/internal/ref"
)

// Count-only completion counts the trailing non-core levels in closed
// form (countTail, foldLastTwo). Everything here checks that shortcut
// against paths that never take it — a callback-counted run and brute
// force — and guards that the plans it was built for keep taking it.

// motifExec returns the executed plan set plan.MorphBatch chooses for
// the vertex-induced motif batches of the given sizes.
func motifExec(t *testing.T, sizes ...int) []*plan.Plan {
	t.Helper()
	cache := plan.NewCache()
	var pls []*plan.Plan
	for _, k := range sizes {
		for _, m := range pattern.GenerateAllVertexInduced(k) {
			c, err := cache.Get(pattern.VertexInduced(m), plan.Options{})
			if err != nil {
				t.Fatal(err)
			}
			pls = append(pls, c.Plan)
		}
	}
	mp := plan.MorphBatch(pls, cache, plan.Options{})
	if mp == nil {
		t.Fatalf("motif batch %v did not morph", sizes)
	}
	return mp.Exec
}

// randomEdgeInduced builds a random connected pattern of 3..6 vertices
// with no anti-edges or labels: every vertex attaches to an earlier one,
// plus a few random extra edges.
func randomEdgeInduced(rng *rand.Rand) *pattern.Pattern {
	n := 3 + rng.Intn(4)
	p := pattern.New(n)
	for v := 1; v < n; v++ {
		p.AddEdge(v, rng.Intn(v))
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if p.EdgeKindOf(u, v) == pattern.None && rng.Intn(4) == 0 {
				p.AddEdge(u, v)
			}
		}
	}
	return p
}

// adjSnapshot copies every adjacency list, to prove a run wrote none.
func adjSnapshot(g *graph.Graph) [][]uint32 {
	out := make([][]uint32, g.NumVertices())
	for v := range out {
		out[v] = slices.Clone(g.Adj(uint32(v)))
	}
	return out
}

// TestClosedFormDifferential: for every executed plan of the 3-, 4- and
// 5-vertex-induced motif batches and a set of random edge-induced
// patterns, the nil-callback count (closed form) must equal a
// callback-counted run (full enumeration) and brute force — with and
// without symmetry breaking, summed exactly over task ranges, and on an
// RMAT graph with hub bitsets. The closed form only reads candidate
// sets, so the graph's adjacency must be untouched afterwards.
func TestClosedFormDifferential(t *testing.T) {
	rmat, err := graph.RenumberDescending(gen.RMAT(gen.RMATConfig{Vertices: 40, Edges: 150, Seed: 9}))
	if err != nil {
		t.Fatal(err)
	}
	if rmat.BuildHubBitsets(4) == 0 {
		t.Fatal("no hub bitsets built")
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"er-28", gen.ErdosRenyi(gen.ERConfig{Vertices: 28, Edges: 80, Seed: 5})},
		{"rmat-40-hubs", rmat},
	}

	rng := rand.New(rand.NewSource(17))
	var pats []*pattern.Pattern
	for _, pl := range motifExec(t, 3, 4, 5) {
		pats = append(pats, pl.Pat)
	}
	for i := 0; i < 24; i++ {
		pats = append(pats, randomEdgeInduced(rng))
	}

	// Brute force once per graph and pattern: every automorphism class
	// of matches holds ref.ClassSize mappings.
	brute := make([][]uint64, len(graphs))
	for gi, tc := range graphs {
		brute[gi] = make([]uint64, len(pats))
		for i, p := range pats {
			brute[gi][i] = ref.CountAll(tc.g, p)
		}
	}

	for _, noSB := range []bool{false, true} {
		pls := make([]*plan.Plan, len(pats))
		for i, p := range pats {
			pl, err := plan.New(p, plan.Options{NoSymmetryBreaking: noSB})
			if err != nil {
				t.Fatal(err)
			}
			pls[i] = pl
		}
		for gi, tc := range graphs {
			g := tc.g
			before := adjSnapshot(g)
			opt := Options{Threads: 2, NoSymmetryBreaking: noSB}

			fast := RunPlans(g, pls, nil, opt)
			enumerated := make([]atomic.Uint64, len(pls))
			RunPlans(g, pls, func(_ *Ctx, pat int, _ *Match) { enumerated[pat].Add(1) }, opt)

			// Disjoint task ranges must sum to the full count exactly.
			n := g.NumVertices()
			cuts := []uint32{0, n / 3, n / 2, n}
			ranged := make([]uint64, len(pls))
			for c := 0; c+1 < len(cuts); c++ {
				ro := opt
				ro.TaskLo, ro.TaskHi = cuts[c], cuts[c+1]
				for i, s := range RunPlans(g, pls, nil, ro).Per {
					ranged[i] += s.Matches
				}
			}

			for i, pl := range pls {
				want := brute[gi][i]
				if !noSB {
					want /= ref.ClassSize(pl.Pat)
				}
				got := fast.Per[i].Matches
				if got != want || enumerated[i].Load() != want || ranged[i] != want {
					t.Errorf("%s noSB=%v %v (tail %d): closed form %d, enumerated %d, ranged %d, brute force %d",
						tc.name, noSB, pl.Pat, countTail(pl, nil), got, enumerated[i].Load(), ranged[i], want)
				}
			}
			for v := range before {
				if !slices.Equal(before[v], g.Adj(uint32(v))) {
					t.Fatalf("%s: adjacency of %d changed by the run", tc.name, v)
				}
			}
		}

		// The set must exercise every closed-form shape: one level, and
		// the two-level fold with and without an ordering between the two
		// vertices, over a single-list (aliased) and a multi-list S.
		type shape struct {
			tail         int
			above, multi bool
		}
		seen := make(map[shape]bool)
		for _, pl := range pls {
			nc := pl.NonCore
			switch tail := countTail(pl, nil); tail {
			case 1:
				seen[shape{tail: 1}] = true
			case 2:
				last := &nc[len(nc)-1]
				seen[shape{
					tail:  2,
					above: slices.Contains(last.LowerBound, nc[len(nc)-2].V),
					multi: len(last.CoreNbrs) > 1,
				}] = true
			}
		}
		want := []shape{{tail: 1}, {tail: 2}, {tail: 2, multi: true}}
		if !noSB {
			want = append(want, shape{tail: 2, above: true}, shape{tail: 2, above: true, multi: true})
		}
		for _, s := range want {
			if !seen[s] {
				t.Errorf("noSB=%v: no plan exercises closed-form shape %+v", noSB, s)
			}
		}
	}
}

// TestClosedFormNoUpperBoundFold: countTail declines to fold two levels
// when the last non-core vertex is ordered below the second-to-last,
// leaving that case to recursion. Plan generation never emits it:
// symmetry-breaking pivots are the smallest ids of their orbits, and
// non-core vertices of one orbit have equal constraint counts, so they
// complete in ascending id order. This pins that claim over every
// connected pattern of 3..6 vertices (edge- and vertex-induced), the
// morphed motif batches, and random patterns with anti-edges,
// anti-vertices and labels.
func TestClosedFormNoUpperBoundFold(t *testing.T) {
	var pats []*pattern.Pattern
	for k := 3; k <= 6; k++ {
		for _, m := range pattern.GenerateAllVertexInduced(k) {
			pats = append(pats, m, pattern.VertexInduced(m))
		}
	}
	for _, pl := range motifExec(t, 3, 4, 5) {
		pats = append(pats, pl.Pat)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		pats = append(pats, randomQueryPattern(rng))
	}
	for _, p := range pats {
		pl, err := plan.New(p, plan.Options{})
		if err != nil {
			continue // random patterns may be unplannable
		}
		nc := pl.NonCore
		if len(nc) < 2 {
			continue
		}
		if slices.Contains(nc[len(nc)-1].UpperBound, nc[len(nc)-2].V) {
			t.Errorf("%v: last non-core vertex %d ordered below the previous one %d",
				p, nc[len(nc)-1].V, nc[len(nc)-2].V)
		}
	}
}

// TestClosedFormEngagement guards the fast path itself: every executed
// plan of the vertex-induced motif batches (27 plans for 4+5 vertices,
// the motif-count benchmark's batch; 29 for 3+4+5) must count its
// trailing levels in closed form, so a plan-shape or morph-selection
// change cannot silently switch it off. Plans whose last level carries
// a label or an anti-edge, plans with anti-vertex checks, and any run
// with a callback must not.
func TestClosedFormEngagement(t *testing.T) {
	g := gen.ErdosRenyi(gen.ERConfig{Vertices: 16, Edges: 30, Seed: 1})
	var ctx Ctx
	for _, sizes := range [][]int{{4, 5}, {3, 4, 5}} {
		folded := 0
		for _, pl := range motifExec(t, sizes...) {
			switch w := newWorker(g, pl, nil, &ctx, nil); w.tail {
			case 0:
				t.Errorf("motifs %v: %v: count-only completion is not closed-form", sizes, pl.Pat)
			case 2:
				folded++
			}
			if w := newWorker(g, pl, func(*Ctx, *Match) {}, &ctx, nil); w.tail != 0 {
				t.Errorf("%v: a callback run takes the closed form (tail %d)", pl.Pat, w.tail)
			}
		}
		if folded == 0 {
			t.Errorf("motifs %v: no executed plan folds its last two levels", sizes)
		}
	}

	for _, text := range []string{
		"0-1 0-2 [2:1]",     // labeled last level
		"0-1 0-2 1!2",       // anti-edge on the last level (vertex-induced wedge)
		"0-1 0-2 0!3 1!3",   // anti-vertex check
		"0-1 0-2 0-3 [3:1]", // labeled last level behind a qualifying one
	} {
		pl := mustPlan(t, pattern.MustParse(text))
		if tail := countTail(pl, nil); tail != 0 {
			t.Errorf("%s: count-only tail = %d, want 0", text, tail)
		}
	}
}
