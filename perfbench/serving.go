package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"peregrine"
	"peregrine/internal/coord"
	"peregrine/internal/gen"
	"peregrine/internal/graph"
	"peregrine/internal/pattern"
	"peregrine/internal/server"
)

const (
	graphName = "g"
	// existsShare is the fraction of serve-mix requests that are exists
	// queries (they bypass the coalescer). No measured traffic exists to
	// take it from; it is the smallest share at which the traced run's
	// server.exists_ms_p50 holds as steady as at larger ones, with
	// margin (README.md, "serve-mix traffic").
	existsShare = 0.05
	// jobTTL bounds the node's job map under sustained traffic.
	jobTTL = time.Second
)

// node is one in-process peregrine server on a loopback port.
type node struct {
	hs     *http.Server
	url    string
	cancel context.CancelFunc
	done   chan struct{}
}

// startNode serves the graph file at path under graphName with the
// service defaults (coalescing window 2 ms / 32 requests).
func startNode(path string) (*node, error) {
	ctx, cancel := context.WithCancel(context.Background())
	reg := server.NewRegistry()
	reg.AddFile(graphName, path)
	srv := server.NewServer(ctx, reg)
	srv.Jobs().SetTTL(jobTTL)
	srv.SetCoalescing(server.CoalesceConfig{Window: server.DefaultCoalesceWindow, MaxRequests: server.DefaultCoalesceMaxRequests})
	n, err := serve(srv.Handler(), cancel)
	if err != nil {
		return nil, err
	}
	// Ready means the graph is loaded through the registry the queries
	// use (no memory budget, so it stays resident).
	if _, err := reg.Get(graphName); err != nil {
		n.stop()
		return nil, err
	}
	return n, nil
}

func serve(h http.Handler, cancel context.CancelFunc) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		return nil, err
	}
	n := &node{
		hs:     &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		url:    "http://" + ln.Addr().String(),
		cancel: cancel,
		done:   make(chan struct{}),
	}
	go func() {
		_ = n.hs.Serve(ln)
		close(n.done)
	}()
	return n, nil
}

func (n *node) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = n.hs.Shutdown(ctx)
	n.cancel()
	<-n.done
}

// httpClient is the load generator's own client, one keep-alive
// connection per closed-loop client and host.
var httpClient = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16, IdleConnTimeout: 30 * time.Second}}

func getJSON(url string, v any) error {
	resp, err := httpClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// query posts a synchronous query and returns the terminal job
// snapshot with the round-trip time.
func query(url string, req server.Request) (server.JobInfo, time.Duration, error) {
	var info server.JobInfo
	body, err := json.Marshal(req)
	if err != nil {
		return info, 0, err
	}
	t := time.Now()
	resp, err := httpClient.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return info, 0, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t)
	if err != nil {
		return info, 0, err
	}
	if err := json.Unmarshal(b, &info); err != nil {
		return info, 0, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	if resp.StatusCode != http.StatusOK || info.Status != server.StatusDone || info.Result == nil {
		return info, 0, fmt.Errorf("status %d, job %s: %s", resp.StatusCode, info.Status, info.Error)
	}
	return info, d, nil
}

// jobTime is the server-side lifetime of a job (created to finished).
func jobTime(info server.JobInfo) time.Duration {
	if info.Finished == nil {
		return 0
	}
	return info.Finished.Sub(info.Created)
}

// drawPatterns picks k distinct indices of n for one request from the
// request's own generator.
func drawPatterns(r *gen.RNG, n, k int) []int {
	idx := make([]int, 0, k)
	for len(idx) < k {
		i := int(r.Intn(uint64(n)))
		if !slices.Contains(idx, i) {
			idx = append(idx, i)
		}
	}
	return idx
}

func micros(v int64) time.Duration { return time.Duration(v) * time.Microsecond }

// serving holds what both HTTP workloads share: the request generator
// seed, the motif set, its oracle counts, and traced per-request data.
type serving struct {
	seed   uint64
	path   string
	info   inputInfo
	motifs []*pattern.Pattern
	texts  []string
	want   []uint64 // whole-graph vertex-induced count per motif

	mu      sync.Mutex
	planUs  []time.Duration
	queue   []time.Duration
	exec    []time.Duration
	outside []time.Duration
	tasks   []float64
	matches []float64
}

func (s *serving) input() inputInfo { return s.info }

// rng returns the generator of client c's seq-th request.
func (s *serving) rng(c, seq int) *gen.RNG {
	return gen.NewRNG(subSeed(s.seed, uint64(c)<<32|uint64(uint32(seq))))
}

// probeCompile times PrepareWith on a request's patterns beside the
// request: cold through a fresh plan cache, warm through the default.
func (s *serving) probeCompile(tr *tracer, req string, idx []int) error {
	ps := make([]*pattern.Pattern, len(idx))
	for i, j := range idx {
		ps[i] = s.motifs[j]
	}
	p := tr.begin("plan.prepare_cold", "probe", 0, req)
	if _, err := peregrine.PrepareWith([]peregrine.Option{peregrine.VertexInduced(), peregrine.WithPlanCache(peregrine.NewPlanCache(0))}, ps...); err != nil {
		return err
	}
	tr.finish(p)
	p = tr.begin("plan.prepare", "probe", 0, req)
	if _, err := peregrine.PrepareWith([]peregrine.Option{peregrine.VertexInduced()}, ps...); err != nil {
		return err
	}
	tr.finish(p)
	return nil
}

// checkCounts compares a count result's per-pattern rows with the
// oracle.
func (s *serving) checkCounts(res *server.Result, idx []int) error {
	if len(res.PerPattern) != len(idx) {
		return mismatch("%d per-pattern rows for %d patterns", len(res.PerPattern), len(idx))
	}
	var total uint64
	for i, j := range idx {
		pc := res.PerPattern[i]
		if pc.Pattern != s.texts[j] || pc.Count != s.want[j] {
			return mismatch("pattern %q: count %d, oracle %q %d", pc.Pattern, pc.Count, s.texts[j], s.want[j])
		}
		total += pc.Count
	}
	if res.Count != total {
		return mismatch("count %d, per-pattern sum %d", res.Count, total)
	}
	return nil
}

// observe keeps one traced request's server-reported split.
func (s *serving) observe(st *server.RunStats, rtt, queue, exec time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.planUs = append(s.planUs, micros(st.PlanMicros))
	s.queue = append(s.queue, queue)
	s.exec = append(s.exec, exec)
	s.outside = append(s.outside, rtt-queue-exec)
	s.tasks = append(s.tasks, float64(st.Tasks))
	s.matches = append(s.matches, float64(st.Matches))
}

func (s *serving) serverLayers(m map[string]metric, tr *tracer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m["plan.compile_us_cold"] = metric{us(median(tr.durations("plan.prepare_cold"))), "us"}
	m["plan.compile_us_warm"] = metric{us(median(tr.durations("plan.prepare"))), "us"}
	m["server.plan_ms_p50"] = metric{ms(median(s.planUs)), "ms"}
	m["server.queue_ms_p50"] = metric{ms(median(s.queue)), "ms"}
	m["server.exec_ms_p50"] = metric{ms(median(s.exec)), "ms"}
	m["server.outside_ms_p50"] = metric{ms(median(s.outside)), "ms"}
	m["core.tasks"] = metric{medianF(s.tasks), "count"}
	m["core.matches"] = metric{medianF(s.matches), "count"}
}

// ---- serve-mix ----

// serveMix drives one in-process server with a closed loop of two HTTP
// clients. Each request is a seeded draw: a count of 1-3 vertex-induced
// 3-/4-vertex motifs, or (existsShare of requests) an exists query of
// one such motif.
type serveMix struct {
	serving
	n         *node
	exist     []bool // oracle exists answer per motif
	stats0    server.ServerStats
	countLat  []time.Duration
	existsLat []time.Duration
	latMu     sync.Mutex
}

func newServeMix() workload {
	ps := append(pattern.GenerateAllVertexInduced(3), pattern.GenerateAllVertexInduced(4)...)
	return &serveMix{serving: serving{motifs: ps}}
}

// Two clients: coalescing needs concurrent requests.
func (w *serveMix) clients() int { return 2 }
func (w *serveMix) warmups() int { return 64 }

func (w *serveMix) prepare(seed uint64, dir string) error {
	w.seed = seed
	g := erGraph(serveGraph, subSeed(seed, 3))
	w.path = filepath.Join(dir, "serve.pgr")
	w.info = infoOf("serve-mix (ER)", g)
	return peregrine.SaveGraph(w.path, g)
}

func (w *serveMix) setup() (setupTimes, error) {
	t := time.Now()
	n, err := startNode(w.path)
	if err != nil {
		return setupTimes{}, err
	}
	w.n = n
	var ok map[string]string
	if err := getJSON(n.url+"/healthz", &ok); err != nil {
		return setupTimes{}, err
	}
	d := time.Since(t)
	return setupTimes{total: d, load: d}, nil
}

func (w *serveMix) teardown() {
	if w.n != nil {
		w.n.stop()
		w.n = nil
		httpClient.CloseIdleConnections()
	}
}

// oracle counts every motif through the library on a separate load of
// the same file; exists answers follow from the counts.
func (w *serveMix) oracle() error {
	g, err := peregrine.LoadGraph(w.path)
	if err != nil {
		return err
	}
	defer g.Close()
	if w.want, err = peregrine.CountMany(g, w.motifs, peregrine.VertexInduced(), peregrine.WithoutMorphing()); err != nil {
		return err
	}
	w.texts = make([]string, len(w.motifs))
	w.exist = make([]bool, len(w.motifs))
	for i, p := range w.motifs {
		w.texts[i] = p.String()
		w.exist[i] = w.want[i] > 0
	}
	return nil
}

func (w *serveMix) beginTrace() error {
	return getJSON(w.n.url+"/v1/stats", &w.stats0)
}

func (w *serveMix) op(c, seq int, tr *tracer) (sample, error) {
	r := w.rng(c, seq)
	req := server.Request{Graph: graphName, Kind: server.KindCount, VertexInduced: true, Wait: true}
	var idx []int
	if r.Float64() < existsShare {
		req.Kind = server.KindExists
		idx = drawPatterns(r, len(w.motifs), 1)
	} else {
		idx = drawPatterns(r, len(w.motifs), 1+int(r.Intn(3)))
	}
	for _, j := range idx {
		req.Patterns = append(req.Patterns, w.texts[j])
	}
	id := fmt.Sprintf("c%d-%d", c, seq)
	if tr != nil {
		if err := w.probeCompile(tr, id, idx); err != nil {
			return sample{}, err
		}
	}
	root := tr.begin("server.request", "server", 0, id)
	info, rtt, err := query(w.n.url, req)
	tr.finish(root)
	if err != nil {
		return sample{}, err
	}
	res := info.Result
	if req.Kind == server.KindExists {
		if res.Exists == nil {
			return sample{}, mismatch("exists %q: no answer", req.Patterns[0])
		}
		if *res.Exists != w.exist[idx[0]] {
			return sample{}, mismatch("exists %q: got %v, oracle %v", req.Patterns[0], *res.Exists, w.exist[idx[0]])
		}
	} else if err := w.checkCounts(res, idx); err != nil {
		return sample{}, err
	}
	if tr != nil {
		st := res.Stats
		var queue, exec time.Duration
		if co := st.Coalescing; co != nil {
			queue, exec = micros(co.QueueMicros), micros(co.ExecMicros)
			tr.derived(root, derivedPart{"plan.compile", "plan", micros(st.PlanMicros)},
				derivedPart{"server.queue", "server", queue}, derivedPart{"core.exec", "core", exec})
		} else {
			exec = micros(st.MatchMicros)
			tr.derived(root, derivedPart{"plan.compile", "plan", micros(st.PlanMicros)},
				derivedPart{"core.exec", "core", exec})
		}
		w.observe(st, rtt, queue, exec)
		w.latMu.Lock()
		if req.Kind == server.KindExists {
			w.existsLat = append(w.existsLat, rtt)
		} else {
			w.countLat = append(w.countLat, rtt)
		}
		w.latMu.Unlock()
	}
	return sample{latency: rtt, job: jobTime(info)}, nil
}

func (w *serveMix) layers(m map[string]metric, tr *tracer) error {
	var st server.ServerStats
	if err := getJSON(w.n.url+"/v1/stats", &st); err != nil {
		return err
	}
	w.serverLayers(m, tr)
	d := func(a, b uint64) float64 { return float64(a - b) }
	reqs := d(st.CoalesceRequests, w.stats0.CoalesceRequests)
	m["server.batch_size"] = metric{reqs / max(d(st.CoalesceBatches, w.stats0.CoalesceBatches), 1), "count"}
	m["server.coalesced_ratio"] = metric{d(st.CoalesceCoalesced, w.stats0.CoalesceCoalesced) / max(reqs, 1), "ratio"}
	m["server.traversals_saved"] = metric{d(st.CoalesceTraversalsSaved, w.stats0.CoalesceTraversalsSaved), "count"}
	hits := d(st.PlanCacheHits, w.stats0.PlanCacheHits)
	m["plan.cache_hit_ratio"] = metric{hits / max(hits+d(st.PlanCacheMisses, w.stats0.PlanCacheMisses), 1), "ratio"}
	runs := max(d(st.MorphRuns, w.stats0.MorphRuns), 1)
	m["plan.morph_patterns_replaced"] = metric{d(st.MorphPatternsReplaced, w.stats0.MorphPatternsReplaced) / runs, "count"}
	m["plan.morph_steps_direct"] = metric{d(st.MorphStepsDirect, w.stats0.MorphStepsDirect) / runs, "count"}
	m["plan.morph_steps_morphed"] = metric{d(st.MorphStepsMorphed, w.stats0.MorphStepsMorphed) / runs, "count"}
	m["graph.resident_bytes"] = metric{float64(st.RegistryResidentBytes), "bytes"}
	w.latMu.Lock()
	m["server.count_ms_p50"] = metric{ms(median(w.countLat)), "ms"}
	m["server.exists_ms_p50"] = metric{ms(median(w.existsLat)), "ms"}
	w.latMu.Unlock()
	return nil
}

// ---- coord-count ----

// coordCount drives an in-process coordinator that fans each count out
// to two in-process nodes serving one sharded manifest, with a closed
// loop of one HTTP client. Each request counts 1-3 vertex-induced
// 4-vertex motifs.
type coordCount struct {
	serving
	nodes  []*node
	coord  *node
	shards []coord.ShardSpec

	failovers0 uint64
	probeMu    sync.Mutex
	shardMax   []time.Duration
	shardSum   []time.Duration
	shardSkew  []float64
	mergeOver  []time.Duration
	fanoutIx   []float64
}

func newCoordCount() workload {
	return &coordCount{serving: serving{motifs: pattern.GenerateAllVertexInduced(4)}}
}

// One client: each request already runs one ranged job per shard
// concurrently on 2 nodes of 2 threads each, and a second client's fan-out
// interleaving with it makes latency a function of scheduling.
func (w *coordCount) clients() int { return 1 }
func (w *coordCount) warmups() int { return 16 }

func (w *coordCount) prepare(seed uint64, dir string) error {
	w.seed = seed
	g := erGraph(coordGraph, subSeed(seed, 4))
	w.path = filepath.Join(dir, "coord.manifest")
	w.info = infoOf(fmt.Sprintf("coord-count (ER, %d shards)", coordShards), g)
	return peregrine.SaveShardedGraph(w.path, g, coordShards)
}

func (w *coordCount) setup() (setupTimes, error) {
	t := time.Now()
	m, err := graph.LoadManifest(w.path)
	if err != nil {
		return setupTimes{}, err
	}
	var urls []string
	for i := 0; i < 2; i++ {
		n, err := startNode(w.path)
		if err != nil {
			return setupTimes{}, err
		}
		w.nodes = append(w.nodes, n)
		urls = append(urls, n.url)
	}
	ranges := make([]coord.Range, len(m.Shards))
	for i, sh := range m.Shards {
		ranges[i] = coord.Range{Lo: sh.Lo, Hi: sh.Hi}
	}
	w.shards = coord.Assign(ranges, urls, 2)
	c, err := coord.New(coord.Config{Graph: graphName, Shards: w.shards})
	if err != nil {
		return setupTimes{}, err
	}
	if w.coord, err = serve(c.Handler(), func() {}); err != nil {
		return setupTimes{}, err
	}
	var ok map[string]string
	for _, u := range append(urls, w.coord.url) {
		if err := getJSON(u+"/healthz", &ok); err != nil {
			return setupTimes{}, err
		}
	}
	d := time.Since(t)
	return setupTimes{total: d, load: d}, nil
}

func (w *coordCount) teardown() {
	if w.coord != nil {
		w.coord.stop()
		w.coord = nil
	}
	for _, n := range w.nodes {
		n.stop()
	}
	w.nodes = nil
	httpClient.CloseIdleConnections()
}

// oracle is one node's whole-graph count of every motif, no task range.
func (w *coordCount) oracle() error {
	w.texts = make([]string, len(w.motifs))
	for i, p := range w.motifs {
		w.texts[i] = p.String()
	}
	info, _, err := query(w.nodes[0].url, server.Request{Graph: graphName, Kind: server.KindCount,
		Patterns: w.texts, VertexInduced: true, Wait: true})
	if err != nil {
		return err
	}
	w.want = make([]uint64, len(w.motifs))
	for i, pc := range info.Result.PerPattern {
		w.want[i] = pc.Count
	}
	return nil
}

type coordView struct {
	Shards []struct {
		Failovers uint64 `json:"failovers"`
	} `json:"shards"`
}

func (w *coordCount) failovers() (uint64, error) {
	var v coordView
	if err := getJSON(w.coord.url+"/v1/coord", &v); err != nil {
		return 0, err
	}
	var n uint64
	for _, s := range v.Shards {
		n += s.Failovers
	}
	return n, nil
}

func (w *coordCount) beginTrace() error {
	var err error
	w.failovers0, err = w.failovers()
	return err
}

func (w *coordCount) op(c, seq int, tr *tracer) (sample, error) {
	r := w.rng(c, seq)
	idx := drawPatterns(r, len(w.motifs), 1+int(r.Intn(3)))
	req := server.Request{Graph: graphName, Kind: server.KindCount, VertexInduced: true, Wait: true}
	for _, j := range idx {
		req.Patterns = append(req.Patterns, w.texts[j])
	}
	id := fmt.Sprintf("c%d-%d", c, seq)
	if tr != nil {
		if err := w.probeCompile(tr, id, idx); err != nil {
			return sample{}, err
		}
	}
	root := tr.begin("coord.request", "coord", 0, id)
	info, rtt, err := query(w.coord.url, req)
	tr.finish(root)
	if err != nil {
		return sample{}, err
	}
	if err := w.checkCounts(info.Result, idx); err != nil {
		return sample{}, err
	}
	if tr != nil {
		st := info.Result.Stats
		exec := micros(st.MatchMicros)
		tr.derived(root, derivedPart{"plan.compile", "plan", micros(st.PlanMicros)}, derivedPart{"core.exec", "core", exec})
		w.observe(st, rtt, 0, exec)
		if err := w.probeShards(tr, id, req, info.Result, rtt); err != nil {
			return sample{}, err
		}
	}
	return sample{latency: rtt, job: jobTime(info)}, nil
}

// probeShards posts each shard's ranged count straight to its preferred
// node, concurrently as the coordinator does, and times each; their sum
// must equal the coordinator's merged counts.
func (w *coordCount) probeShards(tr *tracer, id string, req server.Request, merged *server.Result, rtt time.Duration) error {
	root := tr.begin("probe.shards", "probe", 0, id)
	times := make([]time.Duration, len(w.shards))
	parts := make([]*server.Result, len(w.shards))
	errs := make([]error, len(w.shards))
	var wg sync.WaitGroup
	for i, sh := range w.shards {
		wg.Add(1)
		go func(i int, sh coord.ShardSpec) {
			defer wg.Done()
			sub := req
			sub.TaskLo, sub.TaskHi = sh.Lo, sh.Hi
			s := tr.begin("server.shard", "probe", root, id)
			info, d, err := query(sh.Nodes[0], sub)
			tr.finish(s)
			times[i], parts[i], errs[i] = d, info.Result, err
		}(i, sh)
	}
	wg.Wait()
	tr.finish(root)
	var sum, mx time.Duration
	counts := make([]uint64, len(req.Patterns))
	for i := range w.shards {
		if errs[i] != nil {
			return errs[i]
		}
		sum += times[i]
		mx = max(mx, times[i])
		for j, pc := range parts[i].PerPattern {
			counts[j] += pc.Count
		}
	}
	for j, pc := range merged.PerPattern {
		if counts[j] != pc.Count {
			return mismatch("shard probe sum %d, coordinator %d for %q", counts[j], pc.Count, pc.Pattern)
		}
	}
	w.probeMu.Lock()
	defer w.probeMu.Unlock()
	w.shardMax = append(w.shardMax, mx)
	w.shardSum = append(w.shardSum, sum)
	w.shardSkew = append(w.shardSkew, float64(mx)*float64(len(w.shards))/float64(max(sum, 1)))
	w.mergeOver = append(w.mergeOver, rtt-mx)
	if sh := merged.Stats.Sharing; sh != nil {
		w.fanoutIx = append(w.fanoutIx, float64(sh.Intersections))
	}
	return nil
}

func (w *coordCount) layers(m map[string]metric, tr *tracer) error {
	var st server.ServerStats
	if err := getJSON(w.coord.url+"/v1/stats", &st); err != nil {
		return err
	}
	fo, err := w.failovers()
	if err != nil {
		return err
	}
	w.serverLayers(m, tr)
	m["graph.shard_loads"] = metric{float64(st.ShardLoads), "count"}
	m["graph.shard_evictions"] = metric{float64(st.ShardEvictions), "count"}
	m["graph.resident_bytes"] = metric{float64(st.ShardsResidentBytes), "bytes"}
	hits, misses := float64(st.PlanCacheHits), float64(st.PlanCacheMisses)
	m["plan.cache_hit_ratio"] = metric{hits / max(hits+misses, 1), "ratio"}
	w.probeMu.Lock()
	defer w.probeMu.Unlock()
	m["coord.shard_ms_max"] = metric{ms(median(w.shardMax)), "ms"}
	m["coord.shard_ms_sum"] = metric{ms(median(w.shardSum)), "ms"}
	m["coord.shard_skew"] = metric{medianF(w.shardSkew), "ratio"}
	m["coord.merge_overhead_ms"] = metric{ms(median(w.mergeOver)), "ms"}
	m["coord.fanout_intersections"] = metric{medianF(w.fanoutIx), "count"}
	m["coord.failovers"] = metric{float64(fo - w.failovers0), "count"}
	return nil
}
