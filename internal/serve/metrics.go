package serve

import (
	"strconv"

	"napmon/internal/obs"
)

// RegisterMetrics exposes the server's counters, per-stage latency
// histograms and the monitor's paper-level signals (per-class verdict
// tallies, epoch/swap/recompile counters, BDD build statistics) on
// reg under the napmon_ namespace. Everything that already exists as an
// atomic registers as a scrape-time callback — the serving hot path
// pays nothing for being observable beyond the stage clock reads it
// already takes; the stage histograms are shared by reference.
//
// Call once per registry, after New; the metric-name reference table
// lives in the repo root doc.go.
func (s *Server) RegisterMetrics(reg *obs.Registry) {
	reg.CounterFunc("napmon_requests_submitted_total",
		"requests accepted into the queue", func() uint64 { return s.submitted.Load() })
	reg.CounterFunc("napmon_requests_served_total",
		"requests answered with a verdict", func() uint64 { return s.counts.Load().served })
	reg.CounterFunc("napmon_requests_rejected_total",
		"submits refused because the server was closed", func() uint64 { return s.rejected.Load() })
	reg.CounterFunc("napmon_requests_shed_total",
		"non-blocking submits refused on a full queue", func() uint64 { return s.shed.Load() })
	reg.CounterFunc("napmon_serve_expired_total",
		"queued requests shed because their context expired before inference", func() uint64 { return s.expired.Load() })
	reg.CounterFunc("napmon_batches_total",
		"micro-batches dispatched to serving lanes", func() uint64 { return s.counts.Load().batches })
	reg.GaugeFunc("napmon_queue_depth",
		"requests waiting in the bounded queue", func() float64 { return float64(len(s.queue)) })
	reg.GaugeFunc("napmon_lanes",
		"serving lanes (network replicas)", func() float64 { return float64(len(s.lanes)) })

	for i, name := range stageNames {
		reg.HistogramRef("napmon_stage_duration_seconds",
			"serving pipeline stage latency: queue (enqueue to coalescer pickup), coalesce (pickup to hand-off, i.e. waiting for an idle lane) and total per request; dispatch (hand-off to lane running), inference and zone_query per batch",
			&s.stages.hist[i], 1e-9, obs.L("stage", name))
	}
	reg.HistogramRef("napmon_batch_size",
		"requests per micro-batch a lane ran: 1 = lanes idle, MaxBatch = saturated",
		&s.batchSize, 1)

	m := s.mon
	for _, class := range m.WatchClasses() {
		c := class
		label := obs.L("class", strconv.Itoa(c))
		reg.CounterFunc("napmon_watched_total",
			"verdicts issued for a monitored class",
			func() uint64 { return m.WatchCountsFor(c).Watched }, label)
		reg.CounterFunc("napmon_oop_total",
			"out-of-pattern verdicts — the paper's safety signal",
			func() uint64 { return m.WatchCountsFor(c).OutOfPattern }, label)
	}
	reg.CounterFunc("napmon_unmonitored_total",
		"verdicts the monitor abstained on (no zone for the predicted class)",
		func() uint64 { _, _, u := m.WatchTotals(); return u })
	reg.CounterFloatFunc("napmon_inference_seconds_total",
		"cumulative batched forward-pass + pattern-extraction time",
		func() float64 { return float64(m.InferenceNanos()) * 1e-9 })
	reg.CounterFloatFunc("napmon_zone_query_seconds_total",
		"cumulative comfort-zone membership query time",
		func() float64 { return float64(m.ZoneQueryNanos()) * 1e-9 })

	reg.GaugeFunc("napmon_gamma_level",
		"Hamming enlargement level of the serving epoch", func() float64 { return float64(m.Gamma()) })
	reg.GaugeFunc("napmon_epoch",
		"id of the monitor epoch currently serving", func() float64 { return float64(m.Epoch()) })
	upd := m.Updater()
	reg.CounterFunc("napmon_epoch_swaps_total",
		"epochs published by online updates", func() uint64 { return upd.Published() })
	reg.CounterFloatFunc("napmon_epoch_swap_seconds_total",
		"cumulative epoch publication wall time (shadow-build through pointer swap)",
		func() float64 { t, _ := upd.SwapNanos(); return float64(t) * 1e-9 })
	reg.GaugeFunc("napmon_epoch_swap_last_seconds",
		"wall time of the most recent epoch publication",
		func() float64 { _, l := upd.SwapNanos(); return float64(l) * 1e-9 })
	reg.CounterFunc("napmon_zone_plans_recompiled_total",
		"zone query plans rebuilt by online updates", func() uint64 { return upd.Recompiled() })
	reg.CounterFunc("napmon_patterns_absorbed_total",
		"activation patterns absorbed by online updates", func() uint64 { return upd.Absorbed() })
	reg.CounterFunc("napmon_epochs_released_total",
		"retired epochs whose grace period has ended", func() uint64 { return upd.ReleasedEpochs() })
	reg.CounterFunc("napmon_updates_total",
		"epoch swaps published through this server", func() uint64 { return s.updates.Load() })

	// The zones of a serving epoch keep no BDD manager: nodes is the size
	// of their plans, and the counters are the cumulative work of every
	// build session (the initial build, each zone an update rebuilt),
	// folded into the monitor when the session's manager was dropped.
	reg.GaugeFunc("napmon_bdd_nodes",
		"branches across every cached level's plan of the serving epoch's zones",
		func() float64 { return float64(m.ManagerStatsTotal().Nodes) })
	reg.CounterFunc("napmon_bdd_unique_hits_total",
		"unique-table hits (canonical node reuse) over all build sessions",
		func() uint64 { return m.ManagerStatsTotal().UniqueHits })
	reg.CounterFunc("napmon_bdd_unique_misses_total",
		"unique-table misses (node creations) over all build sessions",
		func() uint64 { return m.ManagerStatsTotal().UniqueMisses })
	reg.CounterFunc("napmon_bdd_cache_hits_total",
		"computed-table hits over all build sessions",
		func() uint64 { return m.ManagerStatsTotal().CacheHits })
	reg.CounterFunc("napmon_bdd_cache_misses_total",
		"computed-table misses over all build sessions",
		func() uint64 { return m.ManagerStatsTotal().CacheMisses })
	reg.CounterFunc("napmon_bdd_compiles_total",
		"query plans compiled over all build sessions",
		func() uint64 { return m.ManagerStatsTotal().Compiles })
}
