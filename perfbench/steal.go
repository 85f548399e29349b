package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// A shared VM's hypervisor takes CPU time from it in bursts of a few
// seconds (steal). A preempted vCPU stalls whatever runs on it for
// milliseconds, which is most of an HTTP request on the serving
// workloads, so a burst inflates their tail by half or more while the
// program is unchanged. The untraced run therefore reads the machine's
// steal every stealWindow and computes the end-to-end metrics over the
// windows the hypervisor left alone.

// stealWindow is the length of one steal reading.
const stealWindow = 500 * time.Millisecond

// stealQuiet is the steal, in percent of machine CPU time, up to which
// a window always counts as quiet.
const stealQuiet = 5.0

// window is one steal reading over [from, to).
type window struct {
	from, to time.Time
	steal    float64
}

// stealWatch reads /proc/stat every stealWindow until stop.
type stealWatch struct {
	stopc chan struct{}
	out   chan []window
}

func watchSteal() *stealWatch {
	sw := &stealWatch{stopc: make(chan struct{}), out: make(chan []window, 1)}
	go func() {
		t := time.NewTicker(stealWindow)
		defer t.Stop()
		at, cpu := time.Now(), readCPUStat()
		var ws []window
		for {
			last := false
			select {
			case <-t.C:
			case <-sw.stopc:
				last = true
			}
			now, cur := time.Now(), readCPUStat()
			ws = append(ws, window{at, now, stealPercent(cpu, cur)})
			at, cpu = now, cur
			if last {
				sw.out <- ws
				return
			}
		}
	}()
	return sw
}

// stop ends the readings and returns them, the last one partial.
func (sw *stealWatch) stop() []window {
	close(sw.stopc)
	return <-sw.out
}

// quiet keeps the samples that completed in quiet windows: those whose
// steal is at most stealQuiet or at most the run's median window steal,
// so at least half the windows stay. The loop's elapsed time becomes
// the quiet windows' length. The tail is then taken over the kept
// samples, at the percentile they support.
func quiet(st loopStats, ws []window) loopStats {
	steals := make([]float64, len(ws))
	var all time.Duration
	for i, w := range ws {
		steals[i] = w.steal
		all += w.to.Sub(w.from)
	}
	limit := max(stealQuiet, medianF(steals))
	keep := loopStats{attempted: st.attempted, failed: st.failed}
	quietWindows := 0
	for i, w := range ws {
		if w.steal > limit {
			continue
		}
		quietWindows++
		keep.elapsed += w.to.Sub(w.from)
		for _, s := range st.samples {
			if !s.done.Before(w.from) && (s.done.Before(w.to) || i == len(ws)-1) {
				keep.samples = append(keep.samples, s)
			}
		}
	}
	var total float64
	for i, w := range ws {
		total += steals[i] * w.to.Sub(w.from).Seconds()
	}
	fmt.Printf("cpu_steal = %.2f %% of machine CPU time during the measured phase\n", total/max(all.Seconds(), 1e-9))
	if quietWindows == len(ws) || len(keep.samples) == 0 {
		fmt.Printf("quiet windows: all samples kept (%d of %d windows at steal <= %.1f %%)\n", quietWindows, len(ws), limit)
		return st
	}
	lat := latencies(st.samples)
	t, pAll := tail(lat)
	fmt.Printf("quiet windows: %d of %d (steal <= %.1f %%) hold %d of %d samples; over all samples latency p50 %.3f ms, %s %.3f ms\n",
		quietWindows, len(ws), limit, len(keep.samples), len(st.samples), ms(median(lat)), pAll, ms(t))
	return keep
}

// readCPUStat returns the machine-wide (steal, total) CPU ticks from
// /proc/stat; zeros where it is unavailable.
func readCPUStat() [2]uint64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return [2]uint64{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return [2]uint64{}
	}
	var out [2]uint64
	for i, v := range f[1:] {
		n, _ := strconv.ParseUint(v, 10, 64)
		if i < 8 { // user..steal; guest time is already inside user
			out[1] += n
		}
		if i == 7 {
			out[0] = n
		}
	}
	return out
}

// stealPercent is the share of CPU time a hypervisor took from this
// machine between two readings.
func stealPercent(a, b [2]uint64) float64 {
	if b[1] <= a[1] {
		return 0
	}
	return 100 * float64(b[0]-a[0]) / float64(b[1]-a[1])
}
