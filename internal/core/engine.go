// Package core implements the pattern-aware matching engine (paper §4
// and §5): the guided exploration of a data graph driven by an
// exploration plan, with no isomorphism or canonicality checks on any
// partial or complete match.
//
// A mining task is a data vertex (§5.1). From each start vertex the
// engine matches the pattern core by recursive traversal of each
// matching order, then completes matches by intersecting (and, for
// anti-edges, subtracting) adjacency lists of the core match, then
// verifies anti-vertex constraints, and finally hands each complete
// match to the user callback. Partial state lives only on the recursion
// stack — the engine never materializes intermediate match sets, which
// is the source of the paper's memory advantage (Figure 13).
//
// Count-only runs (nil callback) of plans without anti-vertices do not
// enumerate the last non-core levels. A trailing level with a wildcard
// label and no anti-edges contributes the size of its bounded candidate
// set minus the already-matched vertices in it, and the last two such
// levels fold into one merge pass over both candidate sets (see
// worker.foldLastTwo) — counting the common neighbourhood rather than
// visiting it, as pattern-decomposition systems do. Morphed motif
// batches are made almost entirely of such plans.
package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"peregrine/internal/bitset"
	"peregrine/internal/graph"
	"peregrine/internal/pattern"
	"peregrine/internal/plan"
	"peregrine/internal/profile"
)

// NoVertex marks an unmatched mapping slot (anti-vertices never match).
const NoVertex = ^uint32(0)

// Match is one complete match delivered to a callback. Mapping[v] is the
// data vertex (engine id) matched to pattern vertex v, or NoVertex for
// anti-vertices. The Mapping slice is reused between callback
// invocations: callbacks that retain it must copy it.
type Match struct {
	Pattern *pattern.Pattern
	Mapping []uint32
}

// OrigMapping translates the match to original input vertex ids.
func (m *Match) OrigMapping(g *graph.Graph) []uint32 {
	out := make([]uint32, len(m.Mapping))
	for i, v := range m.Mapping {
		if v == NoVertex {
			out[i] = NoVertex
		} else {
			out[i] = g.OrigID(v)
		}
	}
	return out
}

// Ctx is passed to callbacks; it identifies the worker and allows
// stopping the exploration early (§5.3).
type Ctx struct {
	Thread int
	G      *graph.Graph
	stop   *atomic.Bool
}

// Stop requests early termination: all workers observe the flag at their
// next check and unwind (§5.3, existence queries).
func (c *Ctx) Stop() { c.stop.Store(true) }

// Stopped reports whether early termination was requested.
func (c *Ctx) Stopped() bool { return c.stop.Load() }

// Callback processes one match on a worker thread. Implementations must
// be safe for concurrent invocation from multiple workers.
type Callback func(ctx *Ctx, m *Match)

// Options configures a match execution.
type Options struct {
	// Threads is the worker count; 0 means runtime.GOMAXPROCS(0).
	Threads int

	// NoSymmetryBreaking runs the engine without partial orders (the
	// paper's PRG-U configuration): every automorphic variant of every
	// match is enumerated.
	NoSymmetryBreaking bool

	// Breakdown, if non-nil, accumulates the Figure 11 per-stage time
	// split. Enabling it adds timer overhead to the hot path.
	Breakdown *profile.Breakdown

	// LoadBalance, if non-nil, records per-worker busy time and finish
	// times (§6.7).
	LoadBalance *profile.LoadBalance

	// Deadline, when positive, stops the exploration after the given
	// duration as if Ctx.Stop had been called; Stats.Stopped reports
	// whether the run was cut short. Workloads whose exhaustive searches
	// can explode (e.g. ruling out a 14-clique in a dense graph) use this
	// to bound wall time.
	Deadline time.Duration

	// Context, if non-nil, cancels the exploration when done: workers
	// observe the same stop flag Ctx.Stop and Deadline drive, unwind at
	// their next check, and Stats.Stopped reports the truncation. This is
	// how long-running services abort queries whose client went away.
	Context context.Context

	// NoSharing disables cross-pattern traversal sharing: every matching
	// order runs as its own root-to-leaf chain, performing exactly the
	// per-plan work of a serial loop. The sharing ablation — counts are
	// identical either way; only MultiStats.Share differs.
	NoSharing bool

	// TaskLo and TaskHi restrict the scan to mining tasks whose start
	// vertex lies in [TaskLo, TaskHi); TaskHi == 0 means NumVertices.
	// Every enumeration is rooted at exactly one task (its maximum-id
	// core vertex), so counts from disjoint ranges sum to the full-graph
	// count exactly — with or without symmetry breaking. This is the
	// partitioning seam the distributed coordinator (internal/coord)
	// fans out over, and what shard-scan mode iterates shard by shard.
	//
	// Morph recovery is NOT valid under a task range: a pattern and its
	// morphed relatives can have different cores, hence different root
	// tasks for matches on the same vertex set, so the inclusion–
	// exclusion algebra only balances over the whole graph. Callers
	// above the engine disable morphing for ranged executions.
	TaskLo, TaskHi uint32
}

// Stats summarizes one match execution. In a batched run (RunPlans)
// each plan's Stats is exact for that plan: Tasks counts the start
// vertices on which the plan's matching orders were actually attempted
// (its start-label gate passed), so a label-constrained plan in a batch
// reports only its own share of the scan.
type Stats struct {
	Matches     uint64 // complete matches found (callback invocations, or counted matches)
	CoreMatches uint64 // matches of the pattern core
	Tasks       uint64 // start vertices this plan was attempted on
	// Intersections counts the multi-list adjacency intersections this
	// plan performed outside the shared core walk: non-core completion
	// candidate sets and anti-vertex common-neighborhood checks that
	// merged two or more lists (single-list candidate sets are zero-copy
	// views, not set computations). Together with the batch-level
	// ShareStats.Intersections this makes total set-intersection work
	// attributable — the figure pattern morphing trades against.
	Intersections uint64
	Stopped       bool          // true if exploration terminated early
	PlanTime      time.Duration // exploration-plan generation time
	MatchTime     time.Duration // wall time of the parallel exploration
	Threads       int
}

// Run finds every match of p in g and invokes cb for each. A nil cb
// counts matches without callback overhead; the count is in
// Stats.Matches either way.
func Run(g *graph.Graph, p *pattern.Pattern, cb Callback, opt Options) (Stats, error) {
	t0 := time.Now()
	pl, err := plan.New(p, plan.Options{NoSymmetryBreaking: opt.NoSymmetryBreaking})
	if err != nil {
		return Stats{}, err
	}
	st := RunPlan(g, pl, cb, opt)
	st.PlanTime = time.Since(t0) - st.MatchTime
	return st, nil
}

// Count returns the number of matches of p in g.
func Count(g *graph.Graph, p *pattern.Pattern, opt Options) (uint64, error) {
	st, err := Run(g, p, nil, opt)
	if err != nil {
		return 0, err
	}
	return st.Matches, nil
}

// Exists reports whether at least one match of p exists in g, stopping
// exploration at the first match (§5.3).
func Exists(g *graph.Graph, p *pattern.Pattern, opt Options) (bool, error) {
	found := new(atomic.Bool)
	_, err := Run(g, p, func(ctx *Ctx, m *Match) {
		found.Store(true)
		ctx.Stop()
	}, opt)
	return found.Load(), err
}

// RunPlan runs a precomputed plan. Reusing a plan across graphs or
// repeated runs skips plan generation.
func RunPlan(g *graph.Graph, pl *plan.Plan, cb Callback, opt Options) Stats {
	var pcb PlanCallback
	if cb != nil {
		pcb = func(ctx *Ctx, _ int, m *Match) { cb(ctx, m) }
	}
	// RunPlans ships every Per[i] as a complete Stats snapshot, early
	// returns included, so Per[0] is the whole answer.
	return RunPlans(g, []*plan.Plan{pl}, pcb, opt).Per[0]
}

// PlanCallback processes one match from a batched multi-plan run; pat
// is the index into the plan slice of the plan that produced it. Like
// Callback, implementations must be safe for concurrent invocation.
type PlanCallback func(ctx *Ctx, pat int, m *Match)

// ShareStats quantifies cross-pattern traversal sharing in one batched
// execution: how much of the batch's core exploration was merged into
// shared trie nodes, and how many adjacency-intersection computations
// that merging avoided relative to running every matching order alone.
type ShareStats struct {
	// TrieNodes is the number of step nodes in the executed trie;
	// ProgramSteps is the number of steps across all matching orders
	// before merging. TrieNodes < ProgramSteps means prefixes merged.
	TrieNodes    uint64
	ProgramSteps uint64

	// SharedNodeVisits counts node expansions whose candidate set served
	// more than one matching order. Intersections counts candidate-set
	// computations performed; IntersectionsSaved counts the computations
	// unshared execution would have performed on top of that.
	SharedNodeVisits   uint64
	Intersections      uint64
	IntersectionsSaved uint64
}

// MultiStats summarizes one batched execution of several plans over a
// single graph traversal.
type MultiStats struct {
	Per       []Stats       // per-plan stats, exact per plan (see Stats)
	Tasks     uint64        // start vertices processed — once for the whole batch
	Share     ShareStats    // cross-pattern traversal sharing telemetry
	Stopped   bool          // true if exploration terminated early
	MatchTime time.Duration // wall time of the parallel exploration
	Threads   int

	// Intersections totals the completion-side adjacency intersections of
	// every plan actually executed. Unlike summing Per (whose rows morph
	// recovery re-synthesizes for the patterns the caller asked about),
	// this always describes the batch's real runtime work.
	Intersections uint64

	// Morph describes the batch rewriting applied above this execution
	// (plan.MorphBatch): zero-valued when the batch ran as given. When
	// Morph.Active(), Per rows describe the patterns the caller asked
	// for — counts are algebraically recovered — and traversal-side
	// figures (CoreMatches, Tasks, Intersections) are attributed to the
	// executed morphed plans, reported per original only when it ran
	// directly.
	Morph plan.MorphStats

	// Shards describes out-of-core fragment activity during this run,
	// nil when the graph is not sharded. Loads and Evictions are deltas
	// for this run; Evictions > 0 means the graph mined under a budget
	// smaller than its working set.
	Shards *ShardScanStats

	// Err records a storage failure observed during the run — a shard
	// fragment that failed to load serves empty adjacency from that
	// point on, so counts are unreliable when Err is non-nil. Callers
	// above the engine surface it as the query error.
	Err error
}

// ShardScanStats is MultiStats' out-of-core telemetry for one run over
// a sharded graph.
type ShardScanStats struct {
	Shards        int    // shards in the graph's manifest
	Loads         uint64 // fragment loads during this run
	Evictions     uint64 // budget evictions during this run
	ResidentBytes uint64 // resident fragment bytes at run end
}

// MorphStats quantifies pattern-morphing decisions in a batched
// counting execution (see MultiStats.Morph).
type MorphStats = plan.MorphStats

// Matches returns the total match count across all plans.
func (ms *MultiStats) Matches() uint64 {
	var total uint64
	for _, s := range ms.Per {
		total += s.Matches
	}
	return total
}

// RunPlans runs several precomputed plans in one pass over the data
// graph: each start vertex is claimed once from the shared task counter
// and every plan's matching orders are explored from it before the next
// vertex is taken. Beyond the shared task scan, the core traversals
// themselves are shared: all plans' matching orders are merged into a
// prefix trie of canonical exploration steps (plan.BuildShareTrie), and
// each shared node's candidate set is computed once per partial binding
// and reused by every matching order below it. Plans whose matching
// orders induce identical ordered-view prefixes — most of a motif
// batch — diverge only at their first differing step, which is what
// makes batched multi-pattern queries cheaper than a serial loop of
// independent traversals. MultiStats.Share reports the savings;
// Options.NoSharing disables the merge for ablation.
//
// Matches are tagged with the index of the plan that produced them via
// cb's pat argument. The same plan pointer may appear more than once in
// pls; each occurrence is matched and counted independently.
func RunPlans(g *graph.Graph, pls []*plan.Plan, cb PlanCallback, opt Options) MultiStats {
	threads := opt.Threads
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	ms := MultiStats{Per: make([]Stats, len(pls)), Threads: threads}
	for i := range ms.Per {
		// Early returns below ship these snapshots as-is, and callers
		// like RunPlan read Per[i] as a complete Stats.
		ms.Per[i].Threads = threads
	}
	n := int64(g.NumVertices())
	lo, hi := int64(opt.TaskLo), n
	if opt.TaskHi != 0 && int64(opt.TaskHi) < n {
		hi = int64(opt.TaskHi)
	}
	if hi <= lo || len(pls) == 0 {
		return ms
	}

	start := time.Now()
	var stop atomic.Bool
	if opt.Deadline > 0 {
		timer := time.AfterFunc(opt.Deadline, func() { stop.Store(true) })
		defer timer.Stop()
	}
	if ctx := opt.Context; ctx != nil {
		if ctx.Err() != nil {
			ms.Stopped = true
			for i := range ms.Per {
				ms.Per[i].Stopped = true
			}
			return ms
		}
		watchDone := make(chan struct{})
		defer close(watchDone)
		go func() {
			select {
			case <-ctx.Done():
				stop.Store(true)
			case <-watchDone:
			}
		}()
	}
	// The trie is pattern-side only and cheap to build (microseconds for
	// mining-size batches), so it is rebuilt per run rather than cached.
	var trie *plan.ShareTrie
	if opt.NoSharing {
		trie = plan.BuildUnsharedTrie(pls)
	} else {
		trie = plan.BuildShareTrie(pls)
	}
	ms.Share.TrieNodes = trie.Nodes
	ms.Share.ProgramSteps = trie.ProgramSteps

	// Tasks are handed out hubs-first: ids are degree-ordered, so
	// high-degree (expensive, heavily-pruned) tasks run first to avoid
	// stragglers (§5.2). With Build's ascending order hubs sit at the
	// high end and the scan walks down; on a RenumberDescending graph
	// they sit at the low end and the scan walks up. Either way the scan
	// is monotone, so for a sharded graph consecutive tasks fall in the
	// same fragment and a worker re-pins only at shard boundaries.
	hubsLow := g.DegreeDescending()
	next := new(atomic.Int64)
	if hubsLow {
		next.Store(lo - 1)
	} else {
		next.Store(hi)
	}

	var shard0 graph.ShardCounters
	sharded := false
	if c, ok := g.ShardCounters(); ok {
		shard0, sharded = c, true
	}

	stats := make([][]Stats, threads)
	shares := make([]ShareStats, threads)
	tasks := make([]uint64, threads)
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			// The thread's trie walker and per-plan completion workers
			// share one stage recorder: they run sequentially within the
			// thread, so stage times attribute correctly across plans.
			tb := opt.Breakdown.Thread()
			mw := newMultiWorker(g, trie, pls, cb, tid, &stop, tb)
			busyStart := time.Now()
			// Accumulate locally: adjacent tasks[] slots share cache
			// lines, and this counter bumps once per claimed vertex.
			var done uint64
			// Shard-scan pinning: hold the fragment owning the current
			// task range resident so the scan's own rows can't thrash
			// out from under the budget; deeper traversal hops fault
			// fragments in unpinned. pinHi < pinLo forces a pin on the
			// first claimed task.
			var pinLo, pinHi int64 = 0, -1
			var unpin func()
			for {
				var i int64
				if hubsLow {
					i = next.Add(1)
					if i >= hi {
						break
					}
				} else {
					i = next.Add(-1)
					if i < lo {
						break
					}
				}
				if stop.Load() {
					break
				}
				if sharded && (i < pinLo || i >= pinHi) {
					if unpin != nil {
						unpin()
						unpin = nil
					}
					plo, phi, rel, err := g.PinShard(uint32(i))
					if err != nil {
						// The shard set is poisoned; ms.Err reports it
						// after the run. Stop all workers now.
						stop.Store(true)
						break
					}
					pinLo, pinHi, unpin = int64(plo), int64(phi), rel
				}
				mw.runTask(uint32(i))
				done++
			}
			if unpin != nil {
				unpin()
			}
			tasks[tid] = done
			tb.Close()
			finish := time.Now()
			opt.LoadBalance.Report(tid, finish.Sub(busyStart), finish)
			stats[tid] = make([]Stats, len(pls))
			for pi, pw := range mw.pws {
				stats[tid][pi] = pw.stats
			}
			shares[tid] = mw.share
		}(t)
	}
	wg.Wait()

	for tid := range stats {
		ms.Tasks += tasks[tid]
		ms.Share.SharedNodeVisits += shares[tid].SharedNodeVisits
		ms.Share.Intersections += shares[tid].Intersections
		ms.Share.IntersectionsSaved += shares[tid].IntersectionsSaved
		for pi, s := range stats[tid] {
			ms.Per[pi].Matches += s.Matches
			ms.Per[pi].CoreMatches += s.CoreMatches
			ms.Per[pi].Tasks += s.Tasks
			ms.Per[pi].Intersections += s.Intersections
			ms.Intersections += s.Intersections
		}
	}
	for pi := range ms.Per {
		// Per-plan snapshots share the batch-wide traversal figures so
		// each reads as a complete Stats on its own.
		ms.Per[pi].Stopped = stop.Load()
		ms.Per[pi].MatchTime = time.Since(start)
		ms.Per[pi].Threads = threads
	}
	ms.Stopped = stop.Load()
	ms.MatchTime = time.Since(start)
	if sharded {
		c, _ := g.ShardCounters()
		ms.Shards = &ShardScanStats{
			Shards:        c.Shards,
			Loads:         c.Loads - shard0.Loads,
			Evictions:     c.Evictions - shard0.Evictions,
			ResidentBytes: c.ResidentBytes,
		}
		ms.Err = g.ShardErr()
	}
	return ms
}

// multiWorker is one thread's trie executor plus the per-plan
// completion workers it feeds; tasks share nothing across threads but
// the atomic task counter and the stop flag (§5.1: "tasks ... are
// independent of each other"). All candidate-set sharing happens inside
// one multiWorker — shared nodes never alias buffers between threads.
type multiWorker struct {
	g    *graph.Graph
	trie *plan.ShareTrie
	ctx  Ctx
	pws  []*worker // per-plan completion state, indexed like the plan slice

	data    []uint32   // visit index -> data id for the current partial binding
	bufs    [][]uint32 // candidate scratch per trie depth (bufs[d-1] for depth d)
	listArg [][]uint32 // scratch for gathering adjacency list operands
	touched []bool     // per-plan task-attribution flags, reset per task

	// hubs caches g.HasHubBits(); bitArg gathers the hub bitmaps
	// paralleling listArg so skewed intersections can route through the
	// bitset kernels (nil entries for non-hub vertices).
	hubs   bool
	bitArg []*bitset.Bitmap

	share ShareStats
	tb    *profile.ThreadBreakdown
}

func newMultiWorker(g *graph.Graph, trie *plan.ShareTrie, pls []*plan.Plan, cb PlanCallback, tid int, stop *atomic.Bool, tb *profile.ThreadBreakdown) *multiWorker {
	mw := &multiWorker{
		g:       g,
		trie:    trie,
		ctx:     Ctx{Thread: tid, G: g, stop: stop},
		pws:     make([]*worker, len(pls)),
		data:    make([]uint32, trie.MaxCore),
		listArg: make([][]uint32, 0, trie.MaxCore),
		touched: make([]bool, len(pls)),
		hubs:    g.HasHubBits(),
		tb:      tb,
	}
	if mw.hubs {
		mw.bitArg = make([]*bitset.Bitmap, 0, trie.MaxCore)
	}
	if trie.MaxCore > 1 {
		mw.bufs = make([][]uint32, trie.MaxCore-1)
	}
	for pi, pl := range pls {
		var wcb Callback
		if cb != nil {
			pi := pi
			wcb = func(ctx *Ctx, m *Match) { cb(ctx, pi, m) }
		}
		mw.pws[pi] = newWorker(g, pl, wcb, &mw.ctx, tb)
	}
	return mw
}

// runTask explores all matches whose maximum-id core vertex is v (§5.1):
// v binds visit index 0 of every root whose start-label gate admits it,
// and the trie walk matches the remaining core positions downward.
func (mw *multiWorker) runTask(v uint32) {
	vlabel := pattern.Label(mw.g.Label(v))
	for pi := range mw.touched {
		mw.touched[pi] = false
	}
	for _, root := range mw.trie.Roots {
		if root.Step.Label != pattern.Wildcard && root.Step.Label != vlabel {
			continue
		}
		// Exact per-plan task attribution: a plan is charged a task when
		// any of its matching orders is attempted on it, once per task.
		for _, pi := range root.Plans {
			if !mw.touched[pi] {
				mw.touched[pi] = true
				mw.pws[pi].stats.Tasks++
			}
		}
		mw.data[0] = v
		for i := range root.Leaves {
			mw.deliver(&root.Leaves[i])
		}
		mw.descend(root)
	}
}

// descend expands every child of n: the child's candidate set is
// computed once and reused by all child.MOs matching orders in its
// subtree — the cross-pattern sharing the trie exists for.
func (mw *multiWorker) descend(n *plan.ShareNode) {
	for _, child := range n.Children {
		if mw.ctx.stop.Load() {
			return
		}
		st := &child.Step

		mw.tb.Enter(profile.StagePO)
		lo, hi := noLo, noHi
		if st.Lo >= 0 {
			lo = int64(mw.data[st.Lo])
		}
		if st.Hi >= 0 {
			hi = int64(mw.data[st.Hi])
		}
		mw.tb.Enter(profile.StageCore)
		lists := mw.listArg[:0]
		var bits []*bitset.Bitmap
		if mw.hubs {
			bits = mw.bitArg[:0]
		}
		for _, t := range st.Nbr {
			dv := mw.data[t]
			lists = append(lists, mw.g.Adj(dv))
			if mw.hubs {
				bits = append(bits, mw.g.HubBits(dv))
			}
		}
		d := child.Depth - 1
		if cap(mw.bufs[d]) == 0 {
			mw.bufs[d] = make([]uint32, 0, 256)
		}
		// cands is read-only below: with one list it aliases graph
		// adjacency storage (see the intersectListsInto ownership
		// contract), so nothing here may write through it.
		cands := intersectSetsInto(mw.bufs[d], lists, bits, lo, hi)
		if len(lists) > 1 && cap(cands) > cap(mw.bufs[d]) {
			// Keep the grown buffer for future tasks. Single-list results
			// are views into graph storage and must not be adopted.
			mw.bufs[d] = cands[:0:cap(cands)]
		}
		mw.share.Intersections++
		if child.MOs > 1 {
			mw.share.SharedNodeVisits++
			mw.share.IntersectionsSaved += uint64(child.MOs - 1)
		}

		// Candidate filtering and descent are part of matching the core
		// (Figure 11's "Core" stage); deeper levels re-attribute themselves.
		for _, c := range cands {
			if st.Label != pattern.Wildcard && pattern.Label(mw.g.Label(c)) != st.Label {
				continue
			}
			if mw.rejectAnti(c, st.Anti) {
				continue
			}
			mw.data[child.Depth] = c
			if len(child.Leaves) > 0 {
				for i := range child.Leaves {
					mw.deliver(&child.Leaves[i])
				}
				mw.tb.Enter(profile.StageCore)
			}
			mw.descend(child)
			mw.tb.Enter(profile.StageCore)
		}
	}
}

// deliver hands a complete ordered-view binding to the owning plan's
// completion worker: the visit-space binding is translated back to the
// matching order's position space and completed per §4.1.
func (mw *multiWorker) deliver(lf *plan.ShareLeaf) {
	pw := mw.pws[lf.Plan]
	pw.stats.CoreMatches++
	for t, pos := range lf.MO.Visit {
		pw.coreData[pos] = mw.data[t]
	}
	pw.completeCore(lf.MO)
}

// rejectAnti reports whether candidate c is adjacent to the binding of
// any anti-adjacent visit index (anti-edge enforcement inside the core).
func (mw *multiWorker) rejectAnti(c uint32, anti []int) bool {
	for _, t := range anti {
		if mw.g.HasEdge(c, mw.data[t]) {
			return true
		}
	}
	return false
}

// worker holds one plan's completion state on one thread: once the trie
// walk delivers a core binding, the worker completes non-core vertices,
// verifies anti-vertex constraints, and invokes the callback.
type worker struct {
	g   *graph.Graph
	pl  *plan.Plan
	cb  Callback
	ctx *Ctx // the owning thread's context, shared across its workers

	match    []uint32 // pattern vertex -> data id for the current match
	coreData []uint32 // matching-order position -> data id
	assigned []uint32 // data ids matched so far (core + completed non-core)

	ncBufs  [][]uint32 // scratch per completion depth
	listArg [][]uint32 // scratch for gathering adjacency list operands

	// Hub-bitmap gathering, mirroring multiWorker: bitArg parallels
	// listArg when the graph carries hub bitsets.
	hubs   bool
	bitArg []*bitset.Bitmap

	// Count-only completion. tail is how many trailing non-core levels
	// completeFrom counts in closed form rather than enumerates (see
	// countTail); above reports that, with tail == 2, the last vertex
	// is ordered above the second-to-last. inBuf is scratch for the
	// matched vertices inside a counted candidate set.
	tail  int
	above bool
	inBuf []uint32

	m     Match // reused callback argument
	stats Stats
	tb    *profile.ThreadBreakdown
}

func newWorker(g *graph.Graph, pl *plan.Plan, cb Callback, ctx *Ctx, tb *profile.ThreadBreakdown) *worker {
	n := pl.Pat.N()
	w := &worker{
		g:        g,
		pl:       pl,
		cb:       cb,
		ctx:      ctx,
		match:    make([]uint32, n),
		coreData: make([]uint32, len(pl.Core)),
		assigned: make([]uint32, 0, n),
		ncBufs:   make([][]uint32, len(pl.NonCore)+1),
		listArg:  make([][]uint32, 0, n),
		hubs:     g.HasHubBits(),
		tail:     countTail(pl, cb),
		tb:       tb,
	}
	if w.hubs {
		w.bitArg = make([]*bitset.Bitmap, 0, n)
	}
	if w.tail > 0 {
		w.inBuf = make([]uint32, 0, n)
	}
	if w.tail == 2 {
		nc := pl.NonCore
		w.above = slices.Contains(nc[len(nc)-1].LowerBound, nc[len(nc)-2].V)
	}
	for i := range w.match {
		w.match[i] = NoVertex
	}
	w.m = Match{Pattern: pl.Pat, Mapping: w.match}
	return w
}

// countTail returns how many trailing non-core levels of pl a worker
// with callback cb counts in closed form. Only a count-only run (nil cb)
// of a plan without anti-vertex checks qualifies — every match must
// only be counted, and counted unconditionally once its regular
// vertices are placed. A level qualifies when its label is the
// wildcard and it has no anti-edges, so its candidates are exactly its
// bounded common neighborhood minus the already-matched vertices. Two
// levels fold when both qualify and the last is not ordered below the
// second-to-last; plan generation never emits that ordering (pivots
// are the smallest ids of their orbits, and non-core vertices of one
// orbit complete in ascending id order), so it is left to recursion
// rather than given an untested branch.
func countTail(pl *plan.Plan, cb Callback) int {
	qualifies := func(st *plan.NonCoreStep) bool {
		return st.Label == pattern.Wildcard && len(st.CoreAnti) == 0
	}
	nc := pl.NonCore
	n := len(nc)
	if cb != nil || len(pl.Checks) > 0 || n == 0 || !qualifies(&nc[n-1]) {
		return 0
	}
	if n < 2 || !qualifies(&nc[n-2]) || slices.Contains(nc[n-1].UpperBound, nc[n-2].V) {
		return 1
	}
	return 2
}

// completeCore converts the matched ordered view into core matches — one
// per sequence (§4.1: "a match for pMi results in 1 match for pC per
// valid vertex sequence") — and completes each.
func (w *worker) completeCore(mo *plan.MatchingOrder) {
	w.tb.Enter(profile.StageOther) // remapping positions to pattern vertices
	for _, seq := range mo.Seqs {
		if w.ctx.stop.Load() {
			return
		}
		w.assigned = w.assigned[:0]
		for pos, pv := range seq {
			w.match[pv] = w.coreData[pos]
			w.assigned = append(w.assigned, w.coreData[pos])
		}
		w.completeFrom(0)
		for _, pv := range seq {
			w.match[pv] = NoVertex
		}
	}
}

// completeFrom recursively assigns non-core vertices in plan order.
// Candidates depend only on the core match (non-core vertices are an
// independent set), plus ordering and distinctness constraints against
// earlier assignments. On a count-only worker the trailing w.tail
// levels are counted in closed form instead of enumerated.
func (w *worker) completeFrom(i int) {
	n := len(w.pl.NonCore)
	if i == n {
		w.tb.Enter(profile.StageNonCore) // anti-vertex set intersections
		if w.checkAntiVertices() {
			w.stats.Matches++
			if w.cb != nil {
				w.tb.Enter(profile.StageOther)
				w.cb(w.ctx, &w.m)
			}
		}
		return
	}
	if w.ctx.stop.Load() {
		return
	}
	st := &w.pl.NonCore[i]

	w.tb.Enter(profile.StagePO)
	lo, hi := w.bounds(st, -1)
	if lo >= hi {
		w.tb.Enter(profile.StageOther)
		return
	}

	w.tb.Enter(profile.StageNonCore)
	cands := w.candidates(i, lo, hi)
	switch {
	case w.tail == 1 && i == n-1:
		// Every unassigned candidate completes exactly one match.
		w.stats.Matches += uint64(len(cands) - len(w.assignedIn(cands)))
		return
	case w.tail == 2 && i == n-2:
		w.stats.Matches += w.foldLastTwo(cands)
		return
	}

	// Candidate filtering, distinctness, and anti-edge rejection are all
	// part of completing the match (Figure 11's "Non-Core" stage).
outer:
	for _, c := range cands {
		if st.Label != pattern.Wildcard && pattern.Label(w.g.Label(c)) != st.Label {
			continue
		}
		if w.isAssigned(c) {
			continue
		}
		// Anti-edge enforcement: c must not be adjacent to the match of
		// any anti-adjacent core vertex (§4.2's set difference, applied
		// per candidate with binary search).
		for _, pv := range st.CoreAnti {
			if w.g.HasEdge(c, w.match[pv]) {
				continue outer
			}
		}
		w.match[st.V] = c
		w.assigned = append(w.assigned, c)
		w.completeFrom(i + 1)
		w.tb.Enter(profile.StageNonCore)
		w.assigned = w.assigned[:len(w.assigned)-1]
		w.match[st.V] = NoVertex
	}
}

// bounds returns the exclusive id window (lo, hi) the partial-order
// conditions impose on step st's candidates, ignoring conditions
// against pattern vertex skip (-1 ignores none).
func (w *worker) bounds(st *plan.NonCoreStep, skip int) (lo, hi int64) {
	lo, hi = noLo, noHi
	for _, pv := range st.LowerBound {
		if d := int64(w.match[pv]); pv != skip && d > lo {
			lo = d
		}
	}
	for _, pv := range st.UpperBound {
		if d := int64(w.match[pv]); pv != skip && d < hi {
			hi = d
		}
	}
	return lo, hi
}

// candidates intersects the adjacency lists of level i's matched core
// neighbors, clipped to (lo, hi). The result is read-only: single-list
// results alias graph adjacency storage (intersectListsInto ownership
// contract).
func (w *worker) candidates(i int, lo, hi int64) []uint32 {
	lists := w.listArg[:0]
	var bits []*bitset.Bitmap
	if w.hubs {
		bits = w.bitArg[:0]
	}
	for _, pv := range w.pl.NonCore[i].CoreNbrs {
		dv := w.match[pv]
		lists = append(lists, w.g.Adj(dv))
		if w.hubs {
			bits = append(bits, w.g.HubBits(dv))
		}
	}
	if cap(w.ncBufs[i]) == 0 {
		w.ncBufs[i] = make([]uint32, 0, 256)
	}
	cands := intersectSetsInto(w.ncBufs[i], lists, bits, lo, hi)
	if len(lists) > 1 {
		w.stats.Intersections++
		if cap(cands) > cap(w.ncBufs[i]) {
			w.ncBufs[i] = cands[:0:cap(cands)]
		}
	}
	return cands
}

// isAssigned reports whether data vertex c is already matched.
func (w *worker) isAssigned(c uint32) bool {
	for _, used := range w.assigned {
		if used == c {
			return true
		}
	}
	return false
}

// assignedIn returns the matched data vertices that lie in sorted s,
// in w.inBuf.
func (w *worker) assignedIn(s []uint32) []uint32 {
	in := w.inBuf[:0]
	for _, a := range w.assigned {
		if containsSorted(s, a) {
			in = append(in, a)
		}
	}
	return in
}

// foldLastTwo counts the completions of the last two non-core levels
// given the second-to-last level's candidates C, enumerating neither.
// The last level's candidate set S is built once, bounded only by the
// vertices matched before C, and C is folded into one merge pass over
// sorted C and S. With A the matched vertices in S and m = |S∖A|, each
// unassigned c contributes m − [c∈S], or |{s∈S∖A : s > c}| when the
// last vertex is ordered above the previous one (w.above).
//
// S is built lazily, at the first unassigned candidate with a
// non-empty window: a level whose candidates are all assigned or all
// bound out pays no intersection.
func (w *worker) foldLastTwo(cands []uint32) uint64 {
	n := len(w.pl.NonCore)
	last := &w.pl.NonCore[n-1]
	lo, hi := w.bounds(last, w.pl.NonCore[n-2].V)
	if lo >= hi {
		return 0
	}
	var (
		s     []uint32
		inS   []uint32 // A, ascending
		built bool
		total uint64
		j, k  int
	)
	for _, c := range cands {
		if w.isAssigned(c) {
			continue
		}
		if w.above && int64(c)+1 >= hi {
			break // no id fits between c and hi, nor above any later c
		}
		if !built {
			built = true
			if w.above && int64(c) > lo {
				lo = int64(c) // later candidates are larger still
			}
			s = w.candidates(n-1, lo, hi)
			inS = w.assignedIn(s)
			slices.Sort(inS)
		}
		if !w.above {
			j = gallopLowerBound(s, j, c)
			total += uint64(len(s) - len(inS))
			if j < len(s) && s[j] == c {
				total--
			}
			continue
		}
		j = gallopLowerBound(s, j, c+1)
		for k < len(inS) && inS[k] <= c {
			k++
		}
		total += uint64((len(s) - j) - (len(inS) - k))
	}
	return total
}

// checkAntiVertices verifies the §4.3 constraint for every anti-vertex:
// no data vertex may simultaneously (a) neighbor every match of the
// anti-vertex's pattern neighbors and (b) avoid being the match of any
// of those neighbors' own pattern neighbors.
func (w *worker) checkAntiVertices() bool {
	for ci := range w.pl.Checks {
		chk := &w.pl.Checks[ci]
		// Intersect adjacency lists of the matched neighbors, smallest
		// first, streaming the exclusion test.
		lists := w.listArg[:0]
		var bits []*bitset.Bitmap
		if w.hubs {
			bits = w.bitArg[:0]
		}
		for _, u := range chk.Nbrs {
			dv := w.match[u]
			lists = append(lists, w.g.Adj(dv))
			if w.hubs {
				bits = append(bits, w.g.HubBits(dv))
			}
		}
		if cap(w.ncBufs[len(w.pl.NonCore)]) == 0 {
			w.ncBufs[len(w.pl.NonCore)] = make([]uint32, 0, 256)
		}
		// common is only iterated, never written: with one list it is a
		// view of that vertex's adjacency (ownership contract).
		common := intersectSetsInto(w.ncBufs[len(w.pl.NonCore)], lists, bits, noLo, noHi)
		if len(lists) > 1 {
			w.stats.Intersections++
		}
	candidates:
		for _, x := range common {
			// x survives term i iff x is not the match of any pattern
			// neighbor of Nbrs[i]; if it survives all terms, the
			// anti-vertex constraint is violated.
			for i := range chk.Nbrs {
				for _, pv := range chk.Exclude[i] {
					if w.match[pv] == x {
						continue candidates // excluded by term i
					}
				}
			}
			return false // violator exists: a data vertex matches the anti-vertex
		}
	}
	return true
}

// PlanFor exposes plan generation with the engine's options, for tools
// and tests that inspect plans.
func PlanFor(p *pattern.Pattern, opt Options) (*plan.Plan, error) {
	return plan.New(p, plan.Options{NoSymmetryBreaking: opt.NoSymmetryBreaking})
}

// String renders stats compactly for logs and tables.
func (s Stats) String() string {
	return fmt.Sprintf("matches=%d core=%d tasks=%d threads=%d plan=%v match=%v stopped=%v",
		s.Matches, s.CoreMatches, s.Tasks, s.Threads, s.PlanTime, s.MatchTime, s.Stopped)
}
