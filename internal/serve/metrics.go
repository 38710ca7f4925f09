package serve

import (
	"strconv"
	"sync"

	"napmon/internal/obs"
)

// Metrics is one name's serving families on a scrape registry. Every
// series reads whichever server its resolver returns at scrape time, so
// the families follow a reload of the name; while the resolver returns
// nil (the name is unloaded) every series reads zero.
type Metrics struct {
	reg    *obs.Registry
	server func() *Server
	labels []obs.Label

	mu      sync.Mutex
	classes map[int]bool // classes whose per-class series are registered
}

// RegisterMetrics registers the serving families of whichever server
// server returns at scrape time on reg under the napmon_ namespace, with
// labels on every series: the server's counters, per-stage latency
// histograms and the monitor's paper-level signals (verdict tallies,
// epoch/swap/fold counters, overlay size, BDD build statistics). Everything
// already exists as an atomic or a histogram the serving path records
// into, so every series is a scrape-time callback and the hot path pays
// nothing for being observable beyond the stage clock reads it already
// takes. The per-class series come from Track.
//
// Call once per label set; the metric-name reference table lives in the
// repo root doc.go.
func RegisterMetrics(reg *obs.Registry, server func() *Server, labels ...obs.Label) *Metrics {
	m := &Metrics{reg: reg, server: server, labels: labels, classes: make(map[int]bool)}

	counter := func(name, help string, f func(*Server) uint64) {
		reg.CounterFloatFunc(name, help, m.read(func(s *Server) float64 { return float64(f(s)) }), m.with()...)
	}
	seconds := func(name, help string, f func(*Server) int64) {
		reg.CounterFloatFunc(name, help, m.read(func(s *Server) float64 { return float64(f(s)) * 1e-9 }), m.with()...)
	}
	gauge := func(name, help string, f func(*Server) float64) {
		reg.GaugeFunc(name, help, m.read(f), m.with()...)
	}
	histogram := func(name, help string, f func(*Server) *obs.Histogram, scale float64, extra ...obs.Label) {
		reg.HistogramFunc(name, help, func() *obs.Histogram {
			if s := server(); s != nil {
				return f(s)
			}
			return nil
		}, scale, m.with(extra...)...)
	}

	counter("napmon_requests_submitted_total", "requests accepted into the queue",
		func(s *Server) uint64 { return s.submitted.Load() })
	counter("napmon_requests_served_total", "requests answered with a verdict",
		func(s *Server) uint64 { return s.counts.Load().served })
	counter("napmon_requests_rejected_total", "submits refused because the server was closed",
		func(s *Server) uint64 { return s.rejected.Load() })
	counter("napmon_serve_expired_total", "queued requests shed because their context expired before inference",
		func(s *Server) uint64 { return s.expired.Load() })
	counter("napmon_batches_total", "micro-batches dispatched to serving lanes",
		func(s *Server) uint64 { return s.counts.Load().batches })
	gauge("napmon_queue_depth", "requests waiting in the bounded queue",
		func(s *Server) float64 { return float64(len(s.queue)) })
	gauge("napmon_lanes", "serving lanes (network replicas)",
		func(s *Server) float64 { return float64(len(s.lanes)) })

	for i, name := range stageNames {
		histogram("napmon_stage_duration_seconds",
			"serving pipeline stage latency: queue (enqueue to coalescer pickup), coalesce (pickup to hand-off, i.e. waiting for an idle lane) and total per request; dispatch (hand-off to lane running), inference and zone_query per batch",
			func(s *Server) *obs.Histogram { return &s.stages.hist[i] }, 1e-9, obs.L("stage", name))
	}
	histogram("napmon_batch_size",
		"requests per micro-batch a lane ran: 1 = lanes idle, MaxBatch = saturated",
		func(s *Server) *obs.Histogram { return &s.batchSize }, 1)

	counter("napmon_unmonitored_total", "verdicts the monitor abstained on (no zone for the predicted class)",
		func(s *Server) uint64 { _, _, u := s.mon.WatchTotals(); return u })
	seconds("napmon_inference_seconds_total", "cumulative batched forward-pass + pattern-extraction time",
		func(s *Server) int64 { return s.mon.InferenceNanos() })
	seconds("napmon_zone_query_seconds_total", "cumulative comfort-zone membership query time",
		func(s *Server) int64 { return s.mon.ZoneQueryNanos() })

	gauge("napmon_gamma_level", "Hamming enlargement level of the serving epoch",
		func(s *Server) float64 { return float64(s.mon.Gamma()) })
	gauge("napmon_epoch", "id of the monitor epoch currently serving",
		func(s *Server) float64 { return float64(s.mon.Epoch()) })
	counter("napmon_epoch_swaps_total", "epochs published by online updates",
		func(s *Server) uint64 { return s.mon.Updater().Published() })
	seconds("napmon_epoch_swap_seconds_total", "cumulative epoch publication wall time (shadow-build through pointer swap)",
		func(s *Server) int64 { t, _ := s.mon.Updater().SwapNanos(); return t })
	gauge("napmon_epoch_swap_last_seconds", "wall time of the most recent epoch publication",
		func(s *Server) float64 { _, l := s.mon.Updater().SwapNanos(); return float64(l) * 1e-9 })
	counter("napmon_zone_plans_recompiled_total", "zone folds: zones whose query plans an online update rebuilt, folding in the learned overlay",
		func(s *Server) uint64 { return s.mon.Updater().Recompiled() })
	gauge("napmon_zone_overlay_patterns", "learned patterns waiting in the serving epoch's zone overlays, not yet folded into plans",
		func(s *Server) float64 { return float64(s.mon.Updater().Pending()) })
	counter("napmon_patterns_absorbed_total", "activation patterns absorbed by online updates",
		func(s *Server) uint64 { return s.mon.Updater().Absorbed() })

	// The zones of a serving epoch keep no BDD manager: nodes is the size
	// of their plans (overlays left out), and the counters are the
	// cumulative work of every build session (the initial build, each
	// zone fold), added to the monitor when the session's manager was
	// dropped.
	gauge("napmon_bdd_nodes", "branches across every cached level's plan of the serving epoch's zones, overlays left out",
		func(s *Server) float64 { return float64(s.mon.ManagerStatsTotal().Nodes) })
	counter("napmon_bdd_unique_hits_total", "unique-table hits (canonical node reuse) over all build sessions",
		func(s *Server) uint64 { return s.mon.ManagerStatsTotal().UniqueHits })
	counter("napmon_bdd_unique_misses_total", "unique-table misses (node creations) over all build sessions",
		func(s *Server) uint64 { return s.mon.ManagerStatsTotal().UniqueMisses })
	counter("napmon_bdd_cache_hits_total", "computed-table hits over all build sessions",
		func(s *Server) uint64 { return s.mon.ManagerStatsTotal().CacheHits })
	counter("napmon_bdd_cache_misses_total", "computed-table misses over all build sessions",
		func(s *Server) uint64 { return s.mon.ManagerStatsTotal().CacheMisses })
	counter("napmon_bdd_compiles_total", "query plans compiled over all build sessions",
		func(s *Server) uint64 { return s.mon.ManagerStatsTotal().Compiles })
	return m
}

// Track registers the per-class verdict tallies (napmon_watched_total
// and napmon_oop_total, the paper's safety signal) for every class s
// monitors that has no series yet. Call it whenever the name comes to
// hold a new server: a reload with a different class set gains series
// for its new classes, and a class the current server does not monitor
// reads zero.
func (m *Metrics) Track(s *Server) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, class := range s.mon.WatchClasses() {
		if m.classes[class] {
			continue
		}
		m.classes[class] = true
		label := obs.L("class", strconv.Itoa(class))
		m.reg.CounterFloatFunc("napmon_watched_total", "verdicts issued for a monitored class",
			m.read(func(s *Server) float64 { return float64(s.mon.WatchCountsFor(class).Watched) }), m.with(label)...)
		m.reg.CounterFloatFunc("napmon_oop_total", "out-of-pattern verdicts — the paper's safety signal",
			m.read(func(s *Server) float64 { return float64(s.mon.WatchCountsFor(class).OutOfPattern) }), m.with(label)...)
	}
}

// read makes f a scrape callback: it reads the server the name holds
// at scrape time, and zero while the name holds none.
func (m *Metrics) read(f func(*Server) float64) func() float64 {
	return func() float64 {
		if s := m.server(); s != nil {
			return f(s)
		}
		return 0
	}
}

// with returns a fresh copy of the set's labels plus extra: the scrape
// registry sorts the slice it is handed in place.
func (m *Metrics) with(extra ...obs.Label) []obs.Label {
	return append(append(make([]obs.Label, 0, len(m.labels)+len(extra)), m.labels...), extra...)
}
