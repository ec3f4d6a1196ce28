package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one recorded interval: a layer call made from the benchmark's
// own code. Offsets are from the tracer's epoch.
type span struct {
	id, parent uint64
	name       string
	start, end time.Duration
}

// tracer keeps spans in memory until the run ends. Its methods are safe
// for concurrent use; a nil *tracer records nothing.
type tracer struct {
	epoch time.Time
	next  atomic.Uint64

	mu    sync.Mutex
	spans []span

	// roots are the spans covering the workload's traced wall time, and
	// lanes the number of closed-loop callers working under each; a
	// layer's share is its total time over the roots' duration x lanes.
	roots map[uint64]bool
	lanes int
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), roots: map[uint64]bool{}, lanes: 1} }

// openSpan is a started span; end records it.
type openSpan struct {
	t      *tracer
	id     uint64
	parent uint64
	name   string
	start  time.Time
}

// start opens a span named name under parent (0 for none).
func (t *tracer) start(name string, parent uint64) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{t: t, id: t.next.Add(1), parent: parent, name: name, start: time.Now()}
}

// startRoot opens a span of the workload's traced wall time, worked in
// by lanes closed-loop callers.
func (t *tracer) startRoot(lanes int) openSpan {
	if t == nil {
		return openSpan{}
	}
	sp := t.start("workload", 0)
	t.mu.Lock()
	t.roots[sp.id], t.lanes = true, lanes
	t.mu.Unlock()
	return sp
}

// end records the span and returns its duration.
func (s openSpan) end() time.Duration {
	if s.t == nil {
		return 0
	}
	now := time.Now()
	s.t.add(span{s.id, s.parent, s.name, s.start.Sub(s.t.epoch), now.Sub(s.t.epoch)})
	return now.Sub(s.start)
}

func (t *tracer) add(sp span) {
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// layerTotals sums span durations by name.
func (t *tracer) layerTotals() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	tot := map[string]time.Duration{}
	for _, sp := range t.spans {
		tot[sp.name] += sp.end - sp.start
	}
	return tot
}

// layerCounts counts spans by name.
func (t *tracer) layerCounts() map[string]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := map[string]int{}
	for _, sp := range t.spans {
		n[sp.name]++
	}
	return n
}

// rootWall returns the roots' total duration x lanes: the traced wall
// time the layers' shares are taken of.
func (t *tracer) rootWall() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var wall time.Duration
	for _, sp := range t.spans {
		if t.roots[sp.id] {
			wall += sp.end - sp.start
		}
	}
	return wall * time.Duration(t.lanes)
}

// coverage returns the share of the traced wall time that the roots'
// direct children cover.
func (t *tracer) coverage() float64 {
	wall := t.rootWall()
	if wall == 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var covered time.Duration
	for _, sp := range t.spans {
		if t.roots[sp.parent] {
			covered += sp.end - sp.start
		}
	}
	return min(1, float64(covered)/float64(wall))
}

// spanCost measures what recording one span costs on this machine, by
// recording n spans into a scratch tracer.
func spanCost(n int) time.Duration {
	t := newTracer()
	t.spans = make([]span, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		t.start("calibrate", 0).end()
	}
	return time.Since(start) / time.Duration(n)
}

// overheadPct estimates tracing overhead as the recording cost of every
// span, as a percentage of the traced wall time. It suits workloads whose
// spans wrap layer calls of milliseconds; the netd workloads, which trace
// every request, measure theirs against an untraced phase instead.
func (t *tracer) overheadPct() float64 {
	wall := t.rootWall()
	if wall == 0 {
		return 0
	}
	n := t.len()
	cost := spanCost(200000)
	return 100 * float64(cost) * float64(n) / float64(wall)
}

// writeFile writes every span as CSV: id,parent,name,start_ns,end_ns.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,name,start_ns,end_ns")
	t.mu.Lock()
	for _, sp := range t.spans {
		fmt.Fprintf(w, "%d,%d,%s,%d,%d\n", sp.id, sp.parent, sp.name, sp.start.Nanoseconds(), sp.end.Nanoseconds())
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerRow is one line of the per-layer summary.
type layerRow struct {
	name        string
	count       int
	total, self time.Duration
}

// layerRows aggregates spans by name. A span's self time is its duration
// minus the part of its interval that its direct children cover.
func layerRows(spans []span) []layerRow {
	children := map[uint64][]span{}
	for _, sp := range spans {
		if sp.parent != 0 {
			children[sp.parent] = append(children[sp.parent], sp)
		}
	}
	rows := map[string]*layerRow{}
	for _, sp := range spans {
		r := rows[sp.name]
		if r == nil {
			r = &layerRow{name: sp.name}
			rows[sp.name] = r
		}
		d := sp.end - sp.start
		r.count++
		r.total += d
		r.self += d - coveredBy(sp, children[sp.id])
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].total != out[j].total {
			return out[i].total > out[j].total
		}
		return out[i].name < out[j].name
	})
	return out
}

// coveredBy returns how much of sp's interval the union of kids covers.
func coveredBy(sp span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var covered time.Duration
	curS, curE := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		s, e := max(k.start, sp.start), min(k.end, sp.end)
		if e <= s {
			continue
		}
		if s > curE {
			covered += curE - curS
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	return covered + curE - curS
}

// summary prints the per-layer breakdown: each layer's span count, total
// and self time, and share of the traced wall time.
func (t *tracer) summary(w io.Writer, overheadPct float64) {
	wall := t.rootWall()
	t.mu.Lock()
	rows := layerRows(t.spans)
	t.mu.Unlock()
	fmt.Fprintf(w, "traced wall %.3f s (workload spans x %d lanes), spans cover %.1f%%, tracing overhead %.3f%%\n",
		wall.Seconds(), t.lanes, 100*t.coverage(), overheadPct)
	fmt.Fprintf(w, "%-26s %9s %12s %12s %8s\n", "layer", "spans", "total_ms", "self_ms", "share")
	for _, r := range rows {
		share := 0.0
		if wall > 0 {
			share = 100 * float64(r.total) / float64(wall)
		}
		fmt.Fprintf(w, "%-26s %9d %12.3f %12.3f %7.2f%%\n", r.name, r.count,
			float64(r.total.Microseconds())/1e3, float64(r.self.Microseconds())/1e3, share)
	}
}

// msTotals returns every layer's total span time in milliseconds.
func msTotals(tr *tracer) map[string]float64 {
	out := map[string]float64{}
	for name, d := range tr.layerTotals() {
		out[name] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}

// finishTrace fills the metrics every traced run reports.
func finishTrace(tr *tracer, l map[string]float64, overheadPct float64) {
	l["trace.coverage"] = tr.coverage()
	l["trace.spans"] = float64(tr.len())
	l["trace.overhead_pct"] = overheadPct
	l["proc.peak_rss_mb"] = peakRSSMB()
}
