package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one
// operation share Req; Parent links a span to the one that caused it.
// Derived spans carry a duration the system itself reported (job JSON
// fields) rather than one timed here; they are placed at the end of
// their parent's interval, back to back, so only their lengths are
// meaningful.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Req     string `json:"req"`
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	Start   int64  `json:"startNs"` // since the tracer was created
	End     int64  `json:"endNs"`
	Derived bool   `json:"derived,omitempty"`
}

// tracer keeps spans in memory; write dumps them when the run ends. A
// nil *tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	open  map[int64]int // span id -> index, while open
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), open: map[int64]int{}}
}

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name, layer string, parent int64, req string) int64 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Layer: layer, Start: now})
	t.open[id] = len(t.spans) - 1
	return id
}

// finish closes span id.
func (t *tracer) finish(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	if i, ok := t.open[id]; ok {
		t.spans[i].End = now
		delete(t.open, id)
	}
}

// derived records system-reported durations as back-to-back children
// ending at parent's end, in the order given.
func (t *tracer) derived(parent int64, parts ...derivedPart) {
	if t == nil || parent == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent-1]
	end := p.End
	var total int64
	for _, d := range parts {
		total += int64(d.d)
	}
	at := end - total
	for _, d := range parts {
		id := int64(len(t.spans) + 1)
		t.spans = append(t.spans, span{ID: id, Parent: parent, Req: p.Req, Name: d.name, Layer: d.layer,
			Start: at, End: at + int64(d.d), Derived: true})
		at += int64(d.d)
	}
}

type derivedPart struct {
	name, layer string
	d           time.Duration
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// durations returns the lengths of every span called name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int64][][2]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		out[s.Layer] += time.Duration(s.End - s.Start - covered(s.Start, s.End, kids[s.ID]))
	}
	return out
}

// covered is the length of [lo, hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// write dumps every span as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Start time.Time `json:"start"`
		Spans []span    `json:"spans"`
	}{t.t0, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
