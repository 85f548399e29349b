// Command perfbench is the repository benchmark: one seeded workload per
// invocation, measured end to end from outside the engine, with its
// outputs checked against an independently computed oracle.
//
//	python3 perfbench/run.py --workload motif-count --seed 1 --seconds 25 --trace 0
//
// run.py builds this package into .bench_build/perfbench and runs it
// with the same flags (single dash):
//
//	perfbench -workload motif-count -seed 1 -seconds 25 -trace 0
//
// Workloads (see README.md for why each exists and which layers it
// exercises):
//
//	motif-count  library: CountManyWithStats over all 27 vertex-induced 4-/5-motifs, flat ER graph
//	enum-skewed  library: PreparedQuery.ForEach over 4-clique, diamond, bowtie on a renumbered RMAT graph with hub bitsets
//	serve-mix    HTTP: closed loop of count/exists queries against an in-process peregrine server
//	coord-count  HTTP: closed loop of count queries through an in-process coordinator fanning out to 2 nodes over a 4-shard manifest
//
// Every input is generated from -seed and written as .pgr files under
// -workdir; the system under test only ever loads those files.
//
// With -trace 0 the last stdout line is a JSON object carrying the
// end-to-end metrics; with -trace 1 it carries the per-layer metrics
// of a traced run (spans recorded around the public calls into each
// layer, written to -trace-file). Human-readable lines precede it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// errMismatch marks an output check failure: the run reports
// correct=false and exits non-zero.
var errMismatch = errors.New("output mismatch")

func mismatch(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errMismatch, fmt.Sprintf(format, args...))
}

// sample is one completed operation (a library job or an HTTP request).
type sample struct {
	latency time.Duration // caller-observed
	job     time.Duration // time the system spent on the job
	done    time.Time     // when the loop received it
}

// workload is one benchmark scenario. run calls prepare once,
// setup several times (all but the last followed by teardown), then
// oracle, then op in a closed loop from clients goroutines.
type workload interface {
	// prepare generates the seeded inputs and writes them under dir.
	prepare(seed uint64, dir string) error
	// setup brings the system from written files to ready and reports
	// the per-layer parts of that time it measured.
	setup() (setupTimes, error)
	teardown()
	// oracle computes expected outputs through an independent path.
	oracle() error
	// clients is the closed-loop concurrency; warmups is how many
	// operations run before timing starts.
	clients() int
	warmups() int
	// op performs one operation for client c (seq is its per-client
	// sequence number) and checks its output. A non-nil error that is
	// not errMismatch counts the operation as failed.
	op(c, seq int, tr *tracer) (sample, error)
	// input describes the generated graph.
	input() inputInfo
	// beginTrace snapshots cumulative counters before the traced phase;
	// layers adds the per-layer metrics gathered after it.
	beginTrace() error
	layers(m map[string]metric, tr *tracer) error
}

type setupTimes struct {
	total, load, hub time.Duration
}

type inputInfo struct {
	name                string
	vertices, maxDegree uint32
	edges               uint64
}

var workloads = map[string]func() workload{
	"motif-count": newMotifCount,
	"enum-skewed": newEnumSkewed,
	"serve-mix":   newServeMix,
	"coord-count": newCoordCount,
}

// setupReps is how many times each run sets the system up; setup_s is
// the median.
const setupReps = 101

// setupPause idles the machine before each set-up, so that each starts
// as a real one does, once and from idle, rather than back to back with
// warm caches. Back to back, the 101 set-ups took ~10 ms, landed in
// whichever of the host's fast and slow phases was current, and their
// median spread up to 0.35 (IQR/median) across ten runs; paused, 0.04
// to 0.17.
const setupPause = 20 * time.Millisecond

func main() {
	name := flag.String("workload", "", "workload: motif-count, enum-skewed, serve-mix or coord-count")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 25, "measured duration")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	workdir := flag.String("workdir", ".bench_build/tmp", "directory for generated inputs (a per-run subdirectory is removed at exit)")
	traceFile := flag.String("trace-file", "", "where the traced run writes its spans (default <workdir>/../traces/<workload>-seed<N>.json)")
	flag.Parse()

	mk, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive")
		os.Exit(2)
	}
	if *traceFile == "" {
		*traceFile = filepath.Join(filepath.Dir(filepath.Clean(*workdir)), "traces",
			fmt.Sprintf("%s-seed%d.json", *name, *seed))
	}
	fmt.Printf("perfbench workload=%s seed=%d trace=%d seconds=%g\n", *name, *seed, *trace, *seconds)
	res, err := run(mk(), *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *workdir, *traceFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	if res == nil {
		os.Exit(1)
	}
	line, merr := json.Marshal(res)
	if merr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", merr)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if err != nil || !res.Correct {
		os.Exit(1)
	}
}

func run(w workload, seed uint64, dur time.Duration, traced bool, workdir, traceFile string) (*result, error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	if err := w.prepare(seed, dir); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	in := w.input()
	fmt.Printf("input %s: V=%d E=%d max_degree=%d\n", in.name, in.vertices, in.edges, in.maxDegree)

	var setups []setupTimes
	// Collect the input generator's garbage now, not among the set-ups.
	runtime.GC()
	for i := 0; i < setupReps; i++ {
		time.Sleep(setupPause)
		st, err := w.setup()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, st)
		if i < setupReps-1 {
			w.teardown()
		}
	}
	defer w.teardown()
	if err := w.oracle(); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	// Warm-up: fill caches and finish lazy set-up before timing.
	res := &result{Correct: true, Metrics: map[string]metric{}}
	if warm, err := loop(w, 0, nil, 1<<30, w.warmups()); err != nil {
		res.Correct, res.Attempted, res.Failed = false, warm.attempted, warm.failed
		return res, err
	}
	resetPeakRSS()

	if !traced {
		watch := watchSteal()
		st, err := loop(w, dur, nil, 0, 0)
		windows := watch.stop()
		res.Attempted, res.Failed = st.attempted, st.failed
		if err != nil {
			res.Correct = false
			return res, err
		}
		endToEnd(res.Metrics, quiet(st, windows), setups)
		return res, nil
	}

	// Traced run: an untraced half, then a traced half of the same
	// closed loop; their p50 difference is the tracing overhead.
	plain, err := loop(w, dur/2, nil, 0, 0)
	res.Attempted, res.Failed = plain.attempted, plain.failed
	if err != nil {
		res.Correct = false
		return res, err
	}
	if err := w.beginTrace(); err != nil {
		return nil, err
	}
	tr := newTracer()
	tst, err := loop(w, dur/2, tr, 0, 0)
	res.Attempted += tst.attempted
	res.Failed += tst.failed
	if err != nil {
		res.Correct = false
		return res, err
	}
	m := res.Metrics
	var loads, hubs []time.Duration
	for _, s := range setups {
		loads = append(loads, s.load)
		hubs = append(hubs, s.hub)
	}
	m["graph.load_ms"] = metric{ms(median(loads)), "ms"}
	m["graph.hub_bitsets_ms"] = metric{ms(median(hubs)), "ms"}
	if err := w.layers(m, tr); err != nil {
		return nil, err
	}
	// Self time per operation; "probe" spans time calls made beside the
	// operations (cold compiles, direct shard requests), not inside them.
	for layer, self := range tr.selfTimes() {
		if layer != "probe" {
			m[layer+".self_ms"] = metric{ms(self) / float64(max(len(tst.samples), 1)), "ms"}
		}
	}
	p0 := median(latencies(plain.samples))
	p1 := median(latencies(tst.samples))
	m["trace.overhead_ms"] = metric{ms(p1 - p0), "ms"}
	m["trace.overhead_ratio"] = metric{float64(p1-p0) / float64(max(p0, 1)), "ratio"}
	fmt.Printf("tracing overhead: p50 %.3f ms untraced (%d ops) -> %.3f ms traced (%d ops)\n",
		ms(p0), len(plain.samples), ms(p1), len(tst.samples))
	if err := completeLayers(m); err != nil {
		return nil, err
	}
	if err := tr.write(traceFile); err != nil {
		return nil, err
	}
	fmt.Printf("spans: %d written to %s\n", tr.len(), traceFile)
	return res, nil
}

// loopStats is the outcome of one closed loop.
type loopStats struct {
	samples           []sample
	attempted, failed int
	elapsed           time.Duration
	err               error
}

// loop drives w.op from w.clients() goroutines, each sending its next
// operation only after the previous one completed, until dur has
// passed (or, with dur 0, until count operations ran in total).
// seqBase offsets per-client sequence numbers: the warm-up draws other
// operations than the measured phases, which both replay one sequence.
func loop(w workload, dur time.Duration, tr *tracer, seqBase, count int) (loopStats, error) {
	n := w.clients()
	var (
		mu  sync.Mutex
		out loopStats
		wg  sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				if dur > 0 && !time.Now().Before(deadline) || dur == 0 && i*n+c >= count {
					return
				}
				s, err := w.op(c, seqBase+i, tr)
				mu.Lock()
				out.attempted++
				switch {
				case errors.Is(err, errMismatch):
					out.failed++
					if out.err == nil {
						out.err = err
					}
				case err != nil:
					out.failed++
					fmt.Fprintf(os.Stderr, "perfbench: operation failed: %v\n", err)
				default:
					s.done = time.Now()
					out.samples = append(out.samples, s)
				}
				stop := out.err != nil
				mu.Unlock()
				if stop {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	return out, out.err
}

// endToEnd fills the end-to-end metrics from an untraced loop.
func endToEnd(m map[string]metric, st loopStats, setups []setupTimes) {
	var totals []time.Duration
	for _, s := range setups {
		totals = append(totals, s.total)
	}
	setup := median(totals)
	lat := latencies(st.samples)
	jobs := make([]time.Duration, len(st.samples))
	for i, s := range st.samples {
		jobs[i] = s.job
	}
	jobTail, jobPct := tail(jobs)
	latTail, latPct := tail(lat)
	m["setup_s"] = metric{setup.Seconds(), "s"}
	m["job_s_p50"] = metric{median(jobs).Seconds(), "s"}
	m["job_s_tail"] = metric{jobTail.Seconds(), "s"}
	m["req_per_s"] = metric{float64(len(st.samples)) / st.elapsed.Seconds(), "1/s"}
	m["latency_ms_p50"] = metric{ms(median(lat)), "ms"}
	m["latency_ms_tail"] = metric{ms(latTail), "ms"}
	m["rss_peak_mb"] = metric{peakRSSMB(), "MB"}
	failRatio := float64(st.failed) / float64(max(st.attempted, 1))

	fmt.Printf("setup_s = %.6f s (median of %d set-ups)\n", setup.Seconds(), len(setups))
	fmt.Printf("job_s_p50 = %.6f s, job_s_tail = %.6f s (%s of %d samples)\n",
		m["job_s_p50"].Value, m["job_s_tail"].Value, jobPct, len(jobs))
	fmt.Printf("req_per_s = %.3f 1/s (%d completed in %.3f s)\n", m["req_per_s"].Value, len(st.samples), st.elapsed.Seconds())
	fmt.Printf("latency_ms_p50 = %.3f ms, latency_ms_tail = %.3f ms (%s of %d samples)\n",
		m["latency_ms_p50"].Value, m["latency_ms_tail"].Value, latPct, len(lat))
	fmt.Printf("fail_ratio = %g ratio (%d failed of %d attempted)\n", failRatio, st.failed, st.attempted)
	fmt.Printf("rss_peak_mb = %.3f MB\n", m["rss_peak_mb"].Value)
}

func latencies(ss []sample) []time.Duration {
	out := make([]time.Duration, len(ss))
	for i, s := range ss {
		out[i] = s.latency
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median returns the middle value (mean of the two middle values for
// even counts); 0 for an empty slice.
func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tailPercentiles is the ladder tail picks from, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tail returns the highest percentile of the ladder that has at least
// ten samples beyond it (nearest-rank), with its label. Below 11
// samples it falls back to the maximum.
func tail(ds []time.Duration) (time.Duration, string) {
	if len(ds) == 0 {
		return 0, "none"
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	for _, p := range tailPercentiles {
		k := int(math.Ceil(p / 100 * float64(len(s))))
		if k >= 1 && len(s)-k >= 10 {
			return s[k-1], "p" + strconv.FormatFloat(p, 'f', -1, 64)
		}
	}
	return s[len(s)-1], "max"
}

// resetPeakRSS returns freed heap to the OS and resets the kernel's
// peak-RSS mark (VmHWM) to the current RSS, so rss_peak_mb covers the
// measured phase plus whatever stays resident from set-up, not the
// oracle's transient peak. Without the reset (kernels that refuse the
// write) the mark covers the whole process.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM from /proc/self/status.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
