package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpans bounds a trace: fleet_tiny completes ~70 k requests a second
// at five spans each, and an unbounded record would measure the garbage
// collector. Spans beyond the cap are counted, not kept; the clock reads
// that produce them are still paid, so trace_overhead_pct stays honest.
const maxSpans = 1 << 16

// span is one call the benchmark made into a layer. Times are
// nanoseconds since the trace began. Parent is the id of the span that
// caused this one (0 for a root); spans of one request share Req.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory, one unshared buffer per recording
// goroutine, and writes them out when the phase is over. All spans sit
// in the benchmark's own files, around its calls into each layer; spans
// inside the product are a later change.
type tracer struct {
	t0      time.Time
	ids     atomic.Int64
	kept    atomic.Int64
	dropped atomic.Int64
	mu      sync.Mutex
	bufs    []*spanBuf
}

type spanBuf struct {
	t     *tracer
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// buf hands the calling goroutine its own span buffer.
func (t *tracer) buf() *spanBuf {
	b := &spanBuf{t: t}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

func (t *tracer) nextID() int64 { return t.ids.Add(1) }

// since is the trace-relative timestamp of tm.
func (t *tracer) since(tm time.Time) int64 { return int64(tm.Sub(t.t0)) }

// add records one finished span; start and end are trace-relative.
func (b *spanBuf) add(name string, id, parent, req, start, end int64) {
	if b.t.kept.Add(1) > maxSpans {
		b.t.dropped.Add(1)
		return
	}
	b.spans = append(b.spans, span{Name: name, ID: id, Parent: parent, Req: req, Start: start, End: end})
}

// all returns every kept span ordered by start time.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, b := range t.bufs {
		out = append(out, b.spans...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// selfTime is one row of a span budget.
type selfTime struct {
	name           string
	count          int
	p50Us, selfUs  float64
	shareOfRootPct float64
}

// selfTimes aggregates the spans by name: the median duration, and the
// median self time — a span's duration minus the part of it its child
// spans cover (children are clipped to the parent's interval). A root's
// self time is what its children leave unexplained.
func selfTimes(spans []span) []selfTime {
	covered := make(map[int64]int64)
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			covered[p.ID] += hi - lo
		}
	}
	durs := make(map[string][]float64)
	selfs := make(map[string][]float64)
	var order []string
	for _, s := range spans {
		if _, seen := durs[s.Name]; !seen {
			order = append(order, s.Name)
		}
		d := float64(s.End-s.Start) / 1e3
		durs[s.Name] = append(durs[s.Name], d)
		selfs[s.Name] = append(selfs[s.Name], d-float64(covered[s.ID])/1e3)
	}
	var rootUs float64
	for _, s := range spans {
		if s.Parent == 0 {
			rootUs = median(durs[s.Name])
			break
		}
	}
	out := make([]selfTime, 0, len(order))
	for _, name := range order {
		st := selfTime{name: name, count: len(durs[name]), p50Us: median(durs[name]), selfUs: median(selfs[name])}
		if rootUs > 0 {
			st.shareOfRootPct = 100 * st.selfUs / rootUs
		}
		out = append(out, st)
	}
	return out
}

// printBudget writes the span budget of one traced phase.
func printBudget(w io.Writer, workload string, rows []selfTime) {
	fmt.Fprintf(w, "span budget %s (median per span; a root's self time is the residual its children leave)\n", workload)
	fmt.Fprintf(w, "  %-28s %9s %12s %12s %8s\n", "span", "count", "p50_us", "self_us", "of_root")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-28s %9d %12.2f %12.2f %7.1f%%\n", r.name, r.count, r.p50Us, r.selfUs, r.shareOfRootPct)
	}
}

// write stores spans (the tracer's all) as <dir>/trace-<workload>.json.
func (t *tracer) write(dir, workload string, seed uint64, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	err = json.NewEncoder(bw).Encode(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Dropped  int64  `json:"spans_dropped"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.dropped.Load(), spans})
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
