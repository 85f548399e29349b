package main

import (
	"peregrine/internal/gen"
	"peregrine/internal/graph"
)

// Input shapes. Sizes are chosen so one operation takes long enough to
// time and short enough that a run collects enough samples for a tail
// percentile (see README.md, "Sizing").
var (
	// motif-count: flat-degree ER graph shaped like patents-lite
	// (average degree 10, degree cap 100), scaled down.
	motifGraph = gen.ERConfig{Vertices: 1280, Edges: 6400, MaxDegree: 100}
	// enum-skewed: enumBlocks independently seeded RMAT blocks (Graph500
	// quadrant probabilities) joined as one disjoint graph. Several
	// blocks keep one seed's hub draw from swinging the work.
	enumBlock  = gen.RMATConfig{Vertices: 256, Edges: 1200}
	enumBlocks = 14
	// serve-mix: small flat graph, so engine time is a few ms per request.
	serveGraph = gen.ERConfig{Vertices: 256, Edges: 1280, MaxDegree: 100}
	// coord-count: flat graph split into coordShards fragments.
	coordGraph  = gen.ERConfig{Vertices: 2048, Edges: 10240, MaxDegree: 100}
	coordShards = 4
)

// subSeed derives an independent generator seed for one input of one
// workload from the run seed (splitmix64 finalizer).
func subSeed(seed uint64, salt uint64) uint64 {
	z := seed*0x9E3779B97F4A7C15 + salt
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func infoOf(name string, g *graph.Graph) inputInfo {
	return inputInfo{name: name, vertices: g.NumVertices(), edges: g.NumEdges(), maxDegree: g.MaxDegree()}
}

// erGraph generates the flat graph of cfg under seed.
func erGraph(cfg gen.ERConfig, seed uint64) *graph.Graph {
	cfg.Seed = seed
	return gen.ErdosRenyi(cfg)
}

// rmatBlocks generates blocks RMAT graphs and joins them as one graph
// with disjoint vertex ranges.
func rmatBlocks(cfg gen.RMATConfig, blocks int, seed uint64) *graph.Graph {
	b := graph.NewBuilder()
	for i := 0; i < blocks; i++ {
		c := cfg
		c.Seed = subSeed(seed, uint64(100+i))
		g := gen.RMAT(c)
		off := uint32(i) * cfg.Vertices
		for u := uint32(0); u < g.NumVertices(); u++ {
			for _, v := range g.Adj(u) {
				if u < v {
					b.AddEdge(g.OrigID(u)+off, g.OrigID(v)+off)
				}
			}
		}
	}
	return b.Build()
}
