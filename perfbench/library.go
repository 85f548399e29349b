package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"peregrine"
	"peregrine/internal/core"
	"peregrine/internal/graph"
	"peregrine/internal/pattern"
	"peregrine/internal/plan"
	"peregrine/internal/profile"
)

// library is a closed loop of one library job at a time on one graph
// loaded from a .pgr file: motif-count (counting, morphed) or
// enum-skewed (real embeddings through ForEach).
type library struct {
	enum     bool
	path     string
	info     inputInfo
	hubDeg   uint32 // hub-bitset threshold built at set-up; 0 = none
	patterns []*pattern.Pattern
	opts     []peregrine.Option // prepare/execute options of the public call

	g     *graph.Graph
	query *peregrine.PreparedQuery // enum-skewed: prepared once, reused by every job

	want []uint64 // per-pattern counts from the oracle

	checksum uint64 // enum-skewed: mapping checksum every job must repeat

	// Replay state (traced run): plans compiled through a cache of the
	// benchmark's own, and the figures gathered from the replayed steps.
	// Only the single client goroutine touches it until the loop ends.
	cache  *plan.Cache
	bd     *profile.Breakdown
	last   core.MultiStats
	morph  plan.MorphStats
	spread []time.Duration
}

func newMotifCount() workload {
	var ps []*pattern.Pattern
	ps = append(ps, pattern.GenerateAllVertexInduced(4)...)
	ps = append(ps, pattern.GenerateAllVertexInduced(5)...)
	return &library{patterns: ps, opts: []peregrine.Option{peregrine.VertexInduced()},
		cache: plan.NewCache(), bd: &profile.Breakdown{}}
}

func newEnumSkewed() workload {
	return &library{
		enum: true,
		patterns: []*pattern.Pattern{
			pattern.Clique(4),
			peregrine.NewEvalPattern(peregrine.P1), // diamond
			peregrine.NewEvalPattern(peregrine.P5), // bowtie
		},
		cache: plan.NewCache(),
		bd:    &profile.Breakdown{},
	}
}

func (w *library) clients() int { return 1 }
func (w *library) warmups() int { return 2 }

func (w *library) prepare(seed uint64, dir string) error {
	var g *graph.Graph
	if w.enum {
		flat := rmatBlocks(enumBlock, enumBlocks, subSeed(seed, 2))
		var err error
		if g, err = peregrine.RenumberDescending(flat); err != nil {
			return err
		}
		// README's starting point for hub bitsets: about 8x the
		// average degree.
		w.hubDeg = uint32(8*g.AvgDegree() + 0.5)
		w.path = filepath.Join(dir, "enum-desc.pgr")
		w.info = infoOf("enum-skewed (RMAT blocks, renumbered)", g)
	} else {
		g = erGraph(motifGraph, subSeed(seed, 1))
		w.path = filepath.Join(dir, "motif.pgr")
		w.info = infoOf("motif-count (ER)", g)
	}
	return peregrine.SaveGraph(w.path, g)
}

func (w *library) input() inputInfo { return w.info }

// setup loads the graph through the public path (Open + Load: header
// check, mmap, CSR validation) and builds hub bitsets when configured.
func (w *library) setup() (setupTimes, error) {
	t0 := time.Now()
	src, err := peregrine.Open(w.path)
	if err != nil {
		return setupTimes{}, err
	}
	g, err := src.Load()
	if err != nil {
		return setupTimes{}, err
	}
	t1 := time.Now()
	if w.hubDeg > 0 {
		if g.BuildHubBitsets(w.hubDeg) == 0 {
			return setupTimes{}, fmt.Errorf("no vertex reaches hub degree %d", w.hubDeg)
		}
	}
	t2 := time.Now()
	if w.enum && !g.DegreeDescending() {
		return setupTimes{}, fmt.Errorf("%s is not stored renumbered", w.path)
	}
	w.g = g
	return setupTimes{total: t2.Sub(t0), load: t1.Sub(t0), hub: t2.Sub(t1)}, nil
}

func (w *library) teardown() {
	if w.g != nil {
		_ = w.g.Close()
		w.g = nil
	}
}

// oracle: motif-count compares against the batch run with morphing and
// sharing off; enum-skewed against the count-only path (CountEach) and
// the streaming iterator's mapping checksum.
func (w *library) oracle() error {
	var err error
	if w.enum {
		if w.query, err = peregrine.Prepare(w.patterns...); err != nil {
			return err
		}
		if w.want, err = w.query.CountEach(w.g); err != nil {
			return err
		}
		// The checksum every job must repeat comes from the streaming
		// iterator, which delivers owned copies through a channel
		// instead of calling back on the workers.
		seq, st, err := w.query.MatchesWithStats(w.g)
		if err != nil {
			return err
		}
		sums := newChecksums()
		for pat, m := range seq {
			sums.add(0, pat, m.Mapping)
		}
		if st.Stopped {
			return fmt.Errorf("match stream stopped early")
		}
		w.checksum = sums.total()
		return nil
	}
	opts := append(slices.Clone(w.opts), peregrine.WithoutMorphing(), peregrine.WithoutSharing())
	w.want, err = peregrine.CountMany(w.g, w.patterns, opts...)
	return err
}

func (w *library) op(c, seq int, tr *tracer) (sample, error) {
	if tr != nil {
		return w.replay(seq, tr)
	}
	if w.enum {
		sums := newChecksums()
		t := time.Now()
		ms, err := w.query.ForEach(w.g, func(ctx *peregrine.Ctx, pat int, m *peregrine.Match) {
			sums.add(ctx.Thread, pat, m.Mapping)
		})
		d := time.Since(t)
		if err != nil {
			return sample{}, err
		}
		counts := make([]uint64, len(ms.Per))
		for i := range ms.Per {
			counts[i] = ms.Per[i].Matches
		}
		if err := w.check(counts, sums.total()); err != nil {
			return sample{}, err
		}
		return sample{latency: d, job: d}, nil
	}
	t := time.Now()
	counts, _, err := peregrine.CountManyWithStats(w.g, w.patterns, w.opts...)
	d := time.Since(t)
	if err != nil {
		return sample{}, err
	}
	if err := w.check(counts, 0); err != nil {
		return sample{}, err
	}
	return sample{latency: d, job: d}, nil
}

// check compares one job's per-pattern counts and, for enumeration, its
// mapping checksum with the oracle's.
func (w *library) check(counts []uint64, sum uint64) error {
	if !slices.Equal(counts, w.want) {
		return mismatch("counts %v, oracle %v", counts, w.want)
	}
	if !w.enum {
		return nil
	}
	if sum != w.checksum {
		return mismatch("match checksum %#x, oracle %#x", sum, w.checksum)
	}
	return nil
}

// replay runs one job as the public call does, step by step, with a
// span around each step: PrepareWith, plan lookup, MorphBatch (counting
// only), RunPlans with a breakdown and load-balance recorder, and
// Recover. Its counts (and checksum) must equal the public call's.
func (w *library) replay(seq int, tr *tracer) (sample, error) {
	req := fmt.Sprintf("job-%d", seq)
	// A cold compile through a fresh cache is a probe beside the job,
	// not part of it.
	probe := tr.begin("plan.prepare_cold", "probe", 0, req)
	if _, err := peregrine.PrepareWith(append(slices.Clone(w.opts), peregrine.WithPlanCache(peregrine.NewPlanCache(0))), w.patterns...); err != nil {
		return sample{}, err
	}
	tr.finish(probe)

	t := time.Now()
	root := tr.begin("job", "bench", 0, req)
	s := tr.begin("plan.prepare", "plan", root, req)
	if _, err := peregrine.PrepareWith(w.opts, w.patterns...); err != nil {
		return sample{}, err
	}
	tr.finish(s)

	s = tr.begin("plan.lookup", "plan", root, req)
	plans := make([]*plan.Plan, len(w.patterns))
	remaps := make([][]int, len(w.patterns))
	for i, p := range w.patterns {
		if !w.enum {
			p = pattern.VertexInduced(p)
		}
		cached, err := w.cache.Get(p, plan.Options{})
		if err != nil {
			return sample{}, err
		}
		plans[i], remaps[i] = cached.Plan, cached.Remap
	}
	tr.finish(s)

	exec := plans
	var mp *plan.MorphPlan
	if !w.enum {
		s = tr.begin("plan.morph", "plan", root, req)
		mp = plan.MorphBatch(plans, w.cache, plan.Options{})
		tr.finish(s)
		if mp != nil {
			exec = mp.Exec
		}
	}

	threads := runtime.GOMAXPROCS(0)
	lb := profile.NewLoadBalance(threads)
	var cb core.PlanCallback
	var sums *checksums
	if w.enum {
		sums = newChecksums()
		bufs := make([][]uint32, threads)
		cb = func(ctx *core.Ctx, pat int, m *core.Match) {
			mapping := m.Mapping
			if r := remaps[pat]; r != nil {
				if bufs[ctx.Thread] == nil {
					bufs[ctx.Thread] = make([]uint32, len(r))
				}
				buf := bufs[ctx.Thread][:len(r)]
				for v := range buf {
					buf[v] = mapping[r[v]]
				}
				mapping = buf
			}
			sums.add(ctx.Thread, pat, mapping)
		}
	}
	s = tr.begin("core.run", "core", root, req)
	ms := core.RunPlans(w.g, exec, cb, core.Options{Threads: threads, Breakdown: w.bd, LoadBalance: lb})
	tr.finish(s)
	if ms.Err != nil {
		return sample{}, ms.Err
	}
	counts := make([]uint64, len(ms.Per))
	for i := range ms.Per {
		counts[i] = ms.Per[i].Matches
	}
	if mp != nil {
		s = tr.begin("plan.recover", "plan", root, req)
		counts = mp.Recover(counts)
		tr.finish(s)
	}
	tr.finish(root)
	d := time.Since(t)

	// RunPlans builds the share trie itself, inside core.run; timing the
	// same build again is a probe beside the job, not part of it.
	probe = tr.begin("plan.trie", "probe", 0, req)
	plan.BuildShareTrie(exec)
	tr.finish(probe)

	var sum uint64
	if sums != nil {
		sum = sums.total()
	}
	if err := w.check(counts, sum); err != nil {
		return sample{}, fmt.Errorf("replay: %w", err)
	}
	w.last = ms
	if mp != nil {
		w.morph = mp.Stats
	}
	w.spread = append(w.spread, lb.Spread())
	return sample{latency: d, job: d}, nil
}

func (w *library) beginTrace() error { return nil }

func (w *library) layers(m map[string]metric, tr *tracer) error {
	m["graph.resident_bytes"] = metric{float64(w.g.Bytes()), "bytes"}
	m["plan.compile_us_cold"] = metric{us(median(tr.durations("plan.prepare_cold"))), "us"}
	m["plan.compile_us_warm"] = metric{us(median(tr.durations("plan.prepare"))), "us"}
	hits, misses := peregrine.PlanCacheStats()
	m["plan.cache_hit_ratio"] = metric{float64(hits) / float64(max(hits+misses, 1)), "ratio"}
	m["plan.morph_ms"] = metric{ms(median(tr.durations("plan.morph"))), "ms"}
	m["plan.morph_patterns_replaced"] = metric{float64(w.morph.PatternsReplaced), "count"}
	m["plan.morph_steps_direct"] = metric{float64(w.morph.StepsDirect), "count"}
	m["plan.morph_steps_morphed"] = metric{float64(w.morph.StepsMorphed), "count"}
	m["plan.trie_ms"] = metric{ms(median(tr.durations("plan.trie"))), "ms"}
	m["plan.trie_nodes"] = metric{float64(w.last.Share.TrieNodes), "count"}
	m["plan.program_steps"] = metric{float64(w.last.Share.ProgramSteps), "count"}
	m["plan.recover_us"] = metric{us(median(tr.durations("plan.recover"))), "us"}
	m["core.run_ms"] = metric{ms(median(tr.durations("core.run"))), "ms"}
	r := w.bd.Ratios()
	m["core.share_po"] = metric{r["PO"], "ratio"}
	m["core.share_core"] = metric{r["Core"], "ratio"}
	m["core.share_noncore"] = metric{r["Non-Core"], "ratio"}
	m["core.share_other"] = metric{r["Other"], "ratio"}
	m["core.walk_intersections"] = metric{float64(w.last.Share.Intersections), "count"}
	m["core.walk_intersections_saved"] = metric{float64(w.last.Share.IntersectionsSaved), "count"}
	m["core.completion_intersections"] = metric{float64(w.last.Intersections), "count"}
	m["core.tasks"] = metric{float64(w.last.Tasks), "count"}
	m["core.matches"] = metric{float64(w.last.Matches()), "count"}
	m["core.worker_spread_ms"] = metric{ms(median(w.spread)), "ms"}
	return nil
}

// checksums folds an order-independent checksum of every delivered
// mapping, one padded accumulator per engine worker.
type checksums struct {
	acc [][8]uint64 // [thread][0]; padded to a cache line
}

func newChecksums() *checksums {
	return &checksums{acc: make([][8]uint64, runtime.GOMAXPROCS(0))}
}

func (c *checksums) add(thread, pat int, mapping []uint32) {
	h := uint64(pat+1) * 0x9E3779B97F4A7C15
	for _, v := range mapping {
		h = (h ^ uint64(v)) * 0x100000001B3
	}
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	c.acc[thread][0] += h
}

func (c *checksums) total() uint64 {
	var t uint64
	for i := range c.acc {
		t += c.acc[i][0]
	}
	return t
}
