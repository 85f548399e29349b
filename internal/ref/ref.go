// Package ref holds reference implementations used as correctness
// oracles in tests: a brute-force subgraph matcher with the same
// semantics as the engine (edge-induced matching with anti-edge,
// anti-vertex, and label constraints), implemented in the most obvious
// O(V^k) way with no pruning beyond adjacency.
package ref

import (
	"peregrine/internal/graph"
	"peregrine/internal/pattern"
)

// CountAll returns the number of injective mappings from the regular
// vertices of p into g that satisfy every constraint: regular pattern
// edges map to data edges, anti-edges between regular vertices map to
// data non-edges, labels match (Wildcard matches anything), and every
// anti-vertex constraint (§4.3) holds. Automorphic variants are counted
// separately, so this equals the engine's match count with symmetry
// breaking disabled (PRG-U).
func CountAll(g *graph.Graph, p *pattern.Pattern) uint64 {
	var count uint64
	Enumerate(g, p, func(m []uint32) bool {
		count++
		return true
	})
	return count
}

// CountUnique returns the number of automorphism classes of matches,
// which equals the engine's match count with symmetry breaking enabled.
func CountUnique(g *graph.Graph, p *pattern.Pattern) uint64 {
	return CountAll(g, p) / ClassSize(p)
}

// ClassSize returns how many of CountAll's mappings form one
// automorphism class of p's matches. Every class has the same size:
// |Aut(p)| divided by the number of automorphisms that fix every
// regular vertex (those permute only anti-vertices and do not change
// the delivered mapping).
func ClassSize(p *pattern.Pattern) uint64 {
	autos := p.Automorphisms()
	fixReg := 0
	for _, a := range autos {
		fixes := true
		for _, v := range p.RegularVertices() {
			if a[v] != v {
				fixes = false
				break
			}
		}
		if fixes {
			fixReg++
		}
	}
	classSize := uint64(len(autos) / fixReg)
	if classSize == 0 {
		classSize = 1
	}
	return classSize
}

// Enumerate calls visit with each valid mapping (indexed by pattern
// vertex; anti-vertices hold ^uint32(0)). visit returns false to stop.
// The mapping slice is reused; visit must copy it to retain it.
func Enumerate(g *graph.Graph, p *pattern.Pattern, visit func(m []uint32) bool) {
	reg := p.RegularVertices()
	n := g.NumVertices()
	m := make([]uint32, p.N())
	for i := range m {
		m[i] = ^uint32(0)
	}
	used := make(map[uint32]bool)
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(reg) {
			if !antiVerticesOK(g, p, m) {
				return true
			}
			return visit(m)
		}
		v := reg[i]
		for d := uint32(0); d < n; d++ {
			if used[d] {
				continue
			}
			if l := p.LabelOf(v); l != pattern.Wildcard && pattern.Label(g.Label(d)) != l {
				continue
			}
			ok := true
			for j := 0; j < i; j++ {
				u := reg[j]
				switch p.EdgeKindOf(v, u) {
				case pattern.Regular:
					if !g.HasEdge(d, m[u]) {
						ok = false
					}
				case pattern.Anti:
					if g.HasEdge(d, m[u]) {
						ok = false
					}
				}
				if !ok {
					break
				}
			}
			if !ok {
				continue
			}
			m[v] = d
			used[d] = true
			cont := rec(i + 1)
			used[d] = false
			m[v] = ^uint32(0)
			if !cont {
				return false
			}
		}
		return true
	}
	rec(0)
}

// antiVerticesOK verifies every anti-vertex constraint on a complete
// regular mapping, straight from the §4.3 formula.
func antiVerticesOK(g *graph.Graph, p *pattern.Pattern, m []uint32) bool {
	for _, a := range p.AntiVertices() {
		nbrs := p.AntiNeighbors(a)
		// A data vertex x violates the constraint if it is adjacent to
		// every matched neighbor of a and is not the match of any of
		// those neighbors' own pattern neighbors.
		n := g.NumVertices()
		for x := uint32(0); x < n; x++ {
			violates := true
			for _, u := range nbrs {
				if !g.HasEdge(x, m[u]) {
					violates = false
					break
				}
				excluded := false
				for _, w := range p.Neighbors(u) {
					if !p.IsAntiVertex(w) && m[w] == x {
						excluded = true
						break
					}
				}
				if excluded {
					violates = false
					break
				}
			}
			if violates {
				return false
			}
		}
	}
	return true
}

// CountVertexInduced counts unique vertex-induced matches by brute
// force: for every injective mapping, the subgraph induced by the image
// must be isomorphic to p under that mapping (pattern non-edges map to
// data non-edges). Used to validate Theorem 3.1.
func CountVertexInduced(g *graph.Graph, p *pattern.Pattern) uint64 {
	q := pattern.VertexInduced(p)
	return CountUnique(g, q)
}
