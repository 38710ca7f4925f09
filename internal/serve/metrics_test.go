package serve

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"napmon/internal/core"
	"napmon/internal/obs"
	"napmon/internal/rng"
)

// TestStatsStagesAndCounts drives real traffic through a server and
// checks the new observability surface: per-stage latency distributions
// populate with the right observation counts, the monitor tallies reach
// Stats, and MeanBatchSize is exactly Served/Batches from one snapshot.
func TestStatsStagesAndCounts(t *testing.T) {
	net, mon, inputs := toyServerParts(t, 31)
	s, err := New(net, mon, Config{MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	for i := 0; i < n; i++ {
		f, err := s.Submit(inputs[i%len(inputs)])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Served != n {
		t.Fatalf("Served = %d, want %d", st.Served, n)
	}
	if st.Batches == 0 || st.MeanBatchSize != float64(st.Served)/float64(st.Batches) {
		t.Fatalf("MeanBatchSize %v inconsistent with Served %d / Batches %d",
			st.MeanBatchSize, st.Served, st.Batches)
	}
	for _, stage := range []string{"queue", "coalesce", "total"} {
		if got := st.Stages[stage].Count; got != n {
			t.Fatalf("stage %q count = %d, want %d (per-request)", stage, got, n)
		}
	}
	for _, stage := range []string{"dispatch", "inference", "zone_query"} {
		if got := st.Stages[stage].Count; got != st.Batches {
			t.Fatalf("stage %q count = %d, want %d (per-batch)", stage, got, st.Batches)
		}
	}
	if st.Stages["total"].P50 != st.P50 || st.Stages["total"].P99 != st.P99 {
		t.Fatalf("P50/P99 shim disagrees with total stage: %v/%v vs %+v",
			st.P50, st.P99, st.Stages["total"])
	}
	if st.P99 < st.P50 || st.P50 <= 0 {
		t.Fatalf("implausible percentiles: p50=%v p99=%v", st.P50, st.P99)
	}
	if st.Stages["inference"].P50 <= 0 {
		t.Fatal("inference stage never timed")
	}
	if st.Monitored+st.Unmonitored != n {
		t.Fatalf("monitor tallies %d+%d don't cover %d served", st.Monitored, st.Unmonitored, n)
	}
	if st.Gamma != mon.Gamma() {
		t.Fatalf("Gamma = %d, want %d", st.Gamma, mon.Gamma())
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// register binds s alone to reg's serving families, unlabelled.
func register(reg *obs.Registry, s *Server) {
	RegisterMetrics(reg, func() *Server { return s }).Track(s)
}

// scrapeText renders reg and parses it back through the strict parser.
func scrapeText(t *testing.T, reg *obs.Registry) *obs.Exposition {
	t.Helper()
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	exp, err := obs.ParseExposition(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, sb.String())
	}
	return exp
}

// TestMetricsFollowTheServer binds one label set to a resolver and
// swaps what it resolves to: the series must read the server the name
// holds at scrape time, read zero while it holds none, and keep one
// per-class series per class any tracked server monitored.
func TestMetricsFollowTheServer(t *testing.T) {
	net, mon, inputs := toyServerParts(t, 12)
	first, err := New(net, mon, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer first.Shutdown(context.Background())
	net2, mon2, _ := toyServerParts(t, 13)
	second, err := New(net2, mon2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer second.Shutdown(context.Background())

	var cur atomic.Pointer[Server]
	cur.Store(first)
	reg := obs.NewRegistry()
	lbl := obs.L("tenant", "t")
	m := RegisterMetrics(reg, cur.Load, lbl)
	m.Track(first)
	serveN := func(s *Server, n int) {
		for i := 0; i < n; i++ {
			f, err := s.Submit(inputs[i%len(inputs)])
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Wait(); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := func(what string, served float64) {
		t.Helper()
		exp := scrapeText(t, reg)
		tenant := map[string]string{"tenant": "t"}
		if v, ok := exp.Value("napmon_requests_served_total", tenant); !ok || v != served {
			t.Fatalf("%s: napmon_requests_served_total = %v (present %v), want %v", what, v, ok, served)
		}
		total := map[string]string{"tenant": "t", "stage": "total"}
		if v, ok := exp.Value("napmon_stage_duration_seconds_count", total); !ok || v != served {
			t.Fatalf("%s: total stage count = %v (present %v), want %v", what, v, ok, served)
		}
		if sum, n := exp.SumAcross("napmon_watched_total", tenant); n != len(mon.WatchClasses()) || sum > served {
			t.Fatalf("%s: napmon_watched_total sums to %v over %d series, want at most %v over %d",
				what, sum, n, served, len(mon.WatchClasses()))
		}
	}
	serveN(first, 5)
	want("first server", 5)
	cur.Store(second)
	m.Track(second)
	serveN(second, 2)
	want("second server", 2)
	cur.Store(nil)
	want("no server", 0)
}

// TestRegisterMetrics scrapes a live server through the obs registry and
// cross-checks the exposition against Stats — the same consistency
// contract `make smoke` enforces over HTTP with napmon-metricslint.
func TestRegisterMetrics(t *testing.T) {
	net, mon, inputs := toyServerParts(t, 12)
	s, err := New(net, mon, Config{MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	reg := obs.NewRegistry()
	register(reg, s)
	for i := 0; i < 20; i++ {
		f, err := s.Submit(inputs[i%len(inputs)])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Update(nil); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	exp, err := obs.ParseExposition(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, sb.String())
	}
	st := s.Stats()
	if v, ok := exp.Value("napmon_requests_served_total", nil); !ok || uint64(v) != st.Served {
		t.Fatalf("napmon_requests_served_total = %v (ok=%v), Stats.Served = %d", v, ok, st.Served)
	}
	watchedSum, nClasses := exp.SumAcross("napmon_watched_total", nil)
	if nClasses != len(mon.WatchClasses()) {
		t.Fatalf("napmon_watched_total series = %d, want one per class (%d)", nClasses, len(mon.WatchClasses()))
	}
	if uint64(watchedSum) != st.Monitored {
		t.Fatalf("sum(napmon_watched_total) = %v, Stats.Monitored = %d", watchedSum, st.Monitored)
	}
	oopSum, _ := exp.SumAcross("napmon_oop_total", nil)
	if uint64(oopSum) != st.OutOfPattern {
		t.Fatalf("sum(napmon_oop_total) = %v, Stats.OutOfPattern = %d", oopSum, st.OutOfPattern)
	}
	for _, name := range []string{
		"napmon_stage_duration_seconds",
		"napmon_batch_size",
		"napmon_gamma_level",
		"napmon_epoch",
		"napmon_epoch_swaps_total",
		"napmon_zone_plans_recompiled_total",
		"napmon_zone_overlay_patterns",
		"napmon_bdd_nodes",
		"napmon_bdd_cache_hits_total",
		"napmon_queue_depth",
	} {
		if !exp.Has(name) {
			t.Fatalf("missing series %s in:\n%s", name, sb.String())
		}
	}
	if v, ok := exp.Value("napmon_epoch", nil); !ok || uint64(v) != st.Epoch {
		t.Fatalf("napmon_epoch = %v (ok=%v), Stats.Epoch = %d", v, ok, st.Epoch)
	}
	if v, ok := exp.Value("napmon_bdd_nodes", nil); !ok || v <= 0 {
		t.Fatalf("napmon_bdd_nodes = %v (ok=%v)", v, ok)
	}
	// Stage histogram: per-stage series carry the stage label and a
	// bucket structure the parser already validated; spot-check counts.
	if v, ok := exp.Value("napmon_stage_duration_seconds_count", map[string]string{"stage": "total"}); !ok || uint64(v) != st.Served {
		t.Fatalf("total stage _count = %v (ok=%v), want %d", v, ok, st.Served)
	}
	// Batch width: one observation per batch, summing to the requests served.
	if v, ok := exp.Value("napmon_batch_size_count", nil); !ok || uint64(v) != st.Batches {
		t.Fatalf("napmon_batch_size_count = %v (ok=%v), Stats.Batches = %d", v, ok, st.Batches)
	}
	if v, ok := exp.Value("napmon_batch_size_sum", nil); !ok || uint64(v) != st.Served {
		t.Fatalf("napmon_batch_size_sum = %v (ok=%v), Stats.Served = %d", v, ok, st.Served)
	}
}

// TestBDDCountersMonotone scrapes after every one of 20 pattern updates
// and 2 γ changes and checks that no napmon_bdd_*_total series ever
// decreases: they are registered as counters, and the managers whose work
// they count are dropped at every zone freeze.
func TestBDDCountersMonotone(t *testing.T) {
	net, mon, _ := toyServerParts(t, 19)
	s, err := New(net, mon, Config{MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	reg := obs.NewRegistry()
	register(reg, s)
	series := []string{
		"napmon_bdd_unique_hits_total", "napmon_bdd_unique_misses_total",
		"napmon_bdd_cache_hits_total", "napmon_bdd_cache_misses_total",
		"napmon_bdd_compiles_total",
	}
	scrape := func() map[string]float64 {
		var sb strings.Builder
		if err := reg.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		exp, err := obs.ParseExposition(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]float64{}
		for _, name := range append(series, "napmon_bdd_nodes") {
			v, ok := exp.Value(name, nil)
			if !ok {
				t.Fatalf("missing series %s", name)
			}
			out[name] = v
		}
		return out
	}
	prev := scrape()
	if prev["napmon_bdd_compiles_total"] == 0 || prev["napmon_bdd_unique_misses_total"] == 0 {
		t.Fatalf("the build's work is not counted after the freeze: %v", prev)
	}
	step := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		cur := scrape()
		for _, name := range series {
			if cur[name] < prev[name] {
				t.Fatalf("%s: %s fell from %v to %v", what, name, prev[name], cur[name])
			}
		}
		if cur["napmon_bdd_nodes"] <= 0 {
			t.Fatalf("%s: napmon_bdd_nodes = %v", what, cur["napmon_bdd_nodes"])
		}
		prev = cur
	}
	r := rng.New(19)
	classes, width := mon.Classes(), len(mon.Neurons())
	start := prev
	for i := 0; i < 20; i++ {
		p := make(core.Pattern, width)
		for j := range p {
			p[j] = r.Bool(0.5)
		}
		_, err := s.Update(map[int][]core.Pattern{classes[i%len(classes)]: {p}})
		step(fmt.Sprintf("update %d", i), err)
		if i == 9 {
			_, err := s.UpdateGamma(mon.Gamma() + 2) // past the cached levels: every zone rebuilt
			step("deeper gamma", err)
		}
	}
	_, err = s.UpdateGamma(0) // cached: a re-view, nothing rebuilt
	step("cached gamma", err)
	// The deeper γ folded every overlay; the ten one-pattern learns since
	// are pending, and the gauge says so.
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	exp, err := obs.ParseExposition(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := exp.Value("napmon_zone_overlay_patterns", nil); !ok || v != 10 || mon.Updater().Pending() != 10 {
		t.Fatalf("napmon_zone_overlay_patterns = %v (ok=%v), Pending %d, want 10", v, ok, mon.Updater().Pending())
	}
	if prev["napmon_bdd_compiles_total"] <= start["napmon_bdd_compiles_total"] ||
		prev["napmon_bdd_cache_misses_total"] <= start["napmon_bdd_cache_misses_total"] {
		t.Fatalf("22 updates counted no BDD work: %v -> %v", start, prev)
	}
}

// TestMeanBatchSizeSnapshotConsistent hammers Stats while lanes complete
// batches: every observed MeanBatchSize must be exactly Served/Batches
// of the same snapshot — the race-window skew this PR removes. Runs
// under -race in CI.
func TestMeanBatchSizeSnapshotConsistent(t *testing.T) {
	net, mon, inputs := toyServerParts(t, 7)
	s, err := New(net, mon, Config{MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := s.Stats()
			if st.Batches == 0 {
				if st.MeanBatchSize != 0 {
					t.Error("MeanBatchSize nonzero with zero batches")
					return
				}
				continue
			}
			if want := float64(st.Served) / float64(st.Batches); st.MeanBatchSize != want {
				t.Errorf("MeanBatchSize %v != Served/Batches %v", st.MeanBatchSize, want)
				return
			}
		}
	}()
	var futs []*Future
	for i := 0; i < 300; i++ {
		f, err := s.Submit(inputs[i%len(inputs)])
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	for _, f := range futs {
		if _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// mutexRing is the deleted latencyRing, preserved here only as the A/B
// baseline for BenchmarkStatsRecord: a mutex-guarded sample window that
// serializes every record and copy+sorts per scrape.
type mutexRing struct {
	mu  sync.Mutex
	buf []time.Duration
	n   uint64
}

func (r *mutexRing) record(d time.Duration) {
	r.mu.Lock()
	if len(r.buf) > 0 {
		r.buf[r.n%uint64(len(r.buf))] = d
		r.n++
	}
	r.mu.Unlock()
}

func (r *mutexRing) percentiles() (p50, p99 time.Duration) {
	r.mu.Lock()
	live := len(r.buf)
	if r.n < uint64(live) {
		live = int(r.n)
	}
	sample := append([]time.Duration(nil), r.buf[:live]...)
	r.mu.Unlock()
	if len(sample) == 0 {
		return 0, 0
	}
	sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
	rank := func(p float64) time.Duration {
		i := int(p * float64(len(sample)))
		if i >= len(sample) {
			i = len(sample) - 1
		}
		return sample[i]
	}
	return rank(0.50), rank(0.99)
}

// BenchmarkStatsRecord is the A/B contention comparison behind the
// latencyRing replacement: parallel goroutines recording latencies into
// the old mutex-guarded ring versus the lock-free obs histogram, with a
// periodic concurrent scrape as in live serving. Run with -cpu 1,4 to
// see the contention gap widen.
func BenchmarkStatsRecord(b *testing.B) {
	b.Run("mutexRing", func(b *testing.B) {
		r := &mutexRing{buf: make([]time.Duration, 1024)}
		stop := make(chan struct{})
		go func() {
			for {
				select {
				case <-stop:
					return
				default:
					r.percentiles()
					time.Sleep(100 * time.Microsecond)
				}
			}
		}()
		b.RunParallel(func(pb *testing.PB) {
			d := 700 * time.Microsecond
			for pb.Next() {
				r.record(d)
			}
		})
		close(stop)
	})
	b.Run("obsHistogram", func(b *testing.B) {
		var h obs.Histogram
		stop := make(chan struct{})
		go func() {
			for {
				select {
				case <-stop:
					return
				default:
					s := h.Snapshot()
					_ = s.Quantile(0.99)
					time.Sleep(100 * time.Microsecond)
				}
			}
		}()
		b.RunParallel(func(pb *testing.PB) {
			d := int64(700 * time.Microsecond)
			for pb.Next() {
				h.Record(d)
			}
		})
		close(stop)
	})
}
