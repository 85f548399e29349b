// Package profile provides the instrumentation used to reproduce the
// paper's measurement figures: per-stage execution time breakdown
// (Figure 11: PO / Core / Non-Core / Other), peak memory sampling
// (Figure 13), CPU-utilization-style sampling (Figure 12b), and
// per-thread load-balance statistics (§6.7).
//
// Instrumentation is opt-in: the engine takes a nil *Breakdown in normal
// operation and pays only a pointer comparison on the hot path.
package profile

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Stage identifies one phase of match execution (Figure 11).
type Stage int

// Stages of matching, as broken down in Figure 11.
const (
	StagePO      Stage = iota // locating partial-order candidate windows (binary searches)
	StageCore                 // matching the pattern core (guided traversal intersections)
	StageNonCore              // completing matches (non-core intersections/differences)
	StageOther                // everything else: task dispatch, remapping, callbacks
	numStages
)

// String returns the Figure 11 legend name of the stage.
func (s Stage) String() string {
	switch s {
	case StagePO:
		return "PO"
	case StageCore:
		return "Core"
	case StageNonCore:
		return "Non-Core"
	default:
		return "Other"
	}
}

// Breakdown accumulates per-stage wall time across worker threads.
type Breakdown struct {
	mu     sync.Mutex
	totals [numStages]time.Duration
}

// ThreadBreakdown is a single worker's view; workers accumulate locally
// and flush once at exit, so the shared struct is uncontended.
type ThreadBreakdown struct {
	parent *Breakdown
	local  [numStages]time.Duration
	cur    Stage
	mark   time.Time
}

// Thread returns a worker-local accumulator attached to b. It may be
// called with a nil receiver, in which case it returns nil and all
// ThreadBreakdown methods are no-ops on the nil pointer.
func (b *Breakdown) Thread() *ThreadBreakdown {
	if b == nil {
		return nil
	}
	return &ThreadBreakdown{parent: b, cur: StageOther, mark: time.Now()}
}

// Enter switches the worker to stage s, attributing elapsed time to the
// previous stage. It is only the nil guard, small enough to inline, so
// a worker without a breakdown pays a pointer comparison per call; the
// timing itself is out of line in enter.
func (t *ThreadBreakdown) Enter(s Stage) {
	if t != nil {
		t.enter(s)
	}
}

func (t *ThreadBreakdown) enter(s Stage) {
	now := time.Now()
	t.local[t.cur] += now.Sub(t.mark)
	t.cur = s
	t.mark = now
}

// Close flushes the worker's accumulated times into the parent.
func (t *ThreadBreakdown) Close() {
	if t == nil {
		return
	}
	t.enter(StageOther)
	t.parent.mu.Lock()
	for i := range t.local {
		t.parent.totals[i] += t.local[i]
	}
	t.parent.mu.Unlock()
}

// Totals returns the accumulated duration per stage.
func (b *Breakdown) Totals() map[string]time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]time.Duration, int(numStages))
	for s := Stage(0); s < numStages; s++ {
		out[s.String()] = b.totals[s]
	}
	return out
}

// Ratios returns each stage's fraction of total time (Figure 11's bars).
func (b *Breakdown) Ratios() map[string]float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	var total time.Duration
	for _, d := range b.totals {
		total += d
	}
	out := make(map[string]float64, int(numStages))
	for s := Stage(0); s < numStages; s++ {
		if total > 0 {
			out[s.String()] = float64(b.totals[s]) / float64(total)
		} else {
			out[s.String()] = 0
		}
	}
	return out
}

// MemSampler samples heap usage in the background and records the peak,
// standing in for the paper's peak-RSS measurements (Figure 13).
type MemSampler struct {
	stop     chan struct{}
	done     chan struct{}
	peak     atomic.Uint64
	baseline uint64
}

// StartMemSampler begins sampling at the given interval. The current
// heap size is recorded as a baseline so Peak reports growth caused by
// the measured workload rather than pre-existing allocations.
func StartMemSampler(interval time.Duration) *MemSampler {
	if interval <= 0 {
		interval = 5 * time.Millisecond
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := &MemSampler{
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		baseline: ms.HeapAlloc,
	}
	s.peak.Store(ms.HeapAlloc)
	go func() {
		defer close(s.done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				var m runtime.MemStats
				runtime.ReadMemStats(&m)
				for {
					old := s.peak.Load()
					if m.HeapAlloc <= old || s.peak.CompareAndSwap(old, m.HeapAlloc) {
						break
					}
				}
			}
		}
	}()
	return s
}

// Stop ends sampling and returns the peak heap bytes observed.
func (s *MemSampler) Stop() uint64 {
	close(s.stop)
	<-s.done
	return s.peak.Load()
}

// PeakAboveBaseline returns peak growth over the pre-run heap size.
func (s *MemSampler) PeakAboveBaseline() uint64 {
	p := s.peak.Load()
	if p < s.baseline {
		return 0
	}
	return p - s.baseline
}

// LoadBalance records per-worker busy time and finish order (§6.7: "the
// difference between times taken by threads to finish all of their work
// was only up to 71 ms").
type LoadBalance struct {
	mu       sync.Mutex
	busy     []time.Duration
	finished []time.Time
}

// NewLoadBalance returns a recorder for n workers.
func NewLoadBalance(n int) *LoadBalance {
	return &LoadBalance{busy: make([]time.Duration, n), finished: make([]time.Time, n)}
}

// Report records worker tid's total busy duration and finish time.
func (lb *LoadBalance) Report(tid int, busy time.Duration, finish time.Time) {
	if lb == nil {
		return
	}
	lb.mu.Lock()
	lb.busy[tid] = busy
	lb.finished[tid] = finish
	lb.mu.Unlock()
}

// Spread returns the difference between the earliest and latest worker
// finish times.
func (lb *LoadBalance) Spread() time.Duration {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	var lo, hi time.Time
	for i, t := range lb.finished {
		if t.IsZero() {
			continue
		}
		if i == 0 || t.Before(lo) || lo.IsZero() {
			lo = t
		}
		if t.After(hi) {
			hi = t
		}
	}
	if lo.IsZero() || hi.IsZero() {
		return 0
	}
	return hi.Sub(lo)
}

// Busy returns a copy of the per-worker busy durations.
func (lb *LoadBalance) Busy() []time.Duration {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return append([]time.Duration(nil), lb.busy...)
}

// CPUSample is one point of the Figure 12b-style utilization trace.
type CPUSample struct {
	Elapsed    time.Duration
	Goroutines int
	HeapAlloc  uint64
	AllocRate  float64 // bytes/sec allocated since previous sample, a proxy for memory bandwidth
}

// SampleCPU runs f while sampling runtime statistics at the given
// interval, and returns the trace. It stands in for the paper's CPU
// utilization + memory bandwidth profiling (Figure 12b): Go exposes no
// portable hardware bandwidth counters, so allocation rate and goroutine
// counts are used as trend proxies.
func SampleCPU(interval time.Duration, f func()) []CPUSample {
	if interval <= 0 {
		interval = 20 * time.Millisecond
	}
	var samples []CPUSample
	stop := make(chan struct{})
	done := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		var prevAlloc uint64
		var prevAt time.Time
		for {
			select {
			case <-stop:
				return
			case now := <-tick.C:
				var m runtime.MemStats
				runtime.ReadMemStats(&m)
				s := CPUSample{
					Elapsed:    now.Sub(start),
					Goroutines: runtime.NumGoroutine(),
					HeapAlloc:  m.HeapAlloc,
				}
				if !prevAt.IsZero() && m.TotalAlloc >= prevAlloc {
					dt := now.Sub(prevAt).Seconds()
					if dt > 0 {
						s.AllocRate = float64(m.TotalAlloc-prevAlloc) / dt
					}
				}
				prevAlloc, prevAt = m.TotalAlloc, now
				samples = append(samples, s)
			}
		}
	}()
	f()
	close(stop)
	<-done
	return samples
}
