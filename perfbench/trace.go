package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into an engine layer. Spans of one benchmark
// operation share a request id; a span's parent is the span that was open
// around it (0 = none).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay only a nil check per call site.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	reqs   uint64
	probes int // index of the first layer-probe span; the measured loop's spans come before
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// request allocates a request id for one benchmark operation.
func (t *tracer) request() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	return t.reqs
}

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(name string, parent int32, req uint64) int32 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now})
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent int32, req uint64, fn func() error) error {
	id := t.begin(name, parent, req)
	err := fn()
	t.end(id)
	return err
}

// startProbes marks the end of the measured loop's spans: self times are
// summarized separately for the loop and for the layer probes.
func (t *tracer) startProbes() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.probes = len(t.spans)
	t.mu.Unlock()
}

// layerOf is the layer a span name belongs to: its text before the first
// dot ("session.Insert" → "session").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfTimes sums, per layer, the self time of spans[lo:hi]: each span's
// duration minus the part of it its direct children cover.
func (t *tracer) selfTimes(lo, hi int) map[string]time.Duration {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans[lo:hi] {
		if s.Parent > 0 && s.End > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans[lo:hi] {
		if s.End == 0 {
			continue
		}
		out[layerOf(s.Name)] += time.Duration(max(0, s.End-s.Start-child[s.ID]))
	}
	return out
}

// finish writes the span dump as JSON lines and the self-time summary into
// the report.
func (t *tracer) finish(cfg config, res *result) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(cfg.dump, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.dump, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	res.note("trace %d spans written to %s", len(t.spans), path)
	for _, part := range []struct {
		name   string
		lo, hi int
	}{{"loop", 0, t.probes}, {"probes", t.probes, len(t.spans)}} {
		self := t.selfTimes(part.lo, part.hi)
		var total time.Duration
		layers := make([]string, 0, len(self))
		for l, d := range self {
			layers = append(layers, l)
			total += d
		}
		sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
		for _, l := range layers {
			res.note("self-time %-6s %-12s %10.3f ms  %5.1f%%", part.name, l, float64(self[l].Microseconds())/1e3,
				100*ratio(float64(self[l]), float64(total)))
		}
	}
	return nil
}
