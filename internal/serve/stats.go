package serve

import (
	"time"

	"napmon/internal/obs"
)

// Stats is a point-in-time snapshot of a Server's counters, reported by
// Server.Stats and the napmon-serve /stats endpoint.
type Stats struct {
	// Queued is the current request-queue depth (0..QueueDepth).
	Queued int
	// Submitted counts requests accepted into the queue since start.
	Submitted uint64
	// Served counts requests answered with a verdict.
	Served uint64
	// Rejected counts Submit calls refused because the server was
	// closed or aborted.
	Rejected uint64
	// Expired counts SubmitCtx requests whose context fired after they
	// were queued but before inference: the server shed them with
	// ErrExpired instead of computing a verdict nobody was waiting for.
	// Under overload with client deadlines this is the goodput-protection
	// signal — rising Expired means the queue is holding requests longer
	// than clients are willing to wait.
	Expired uint64
	// Batches is the number of micro-batches lanes ran; MeanBatchSize is
	// Served divided by it. Batches form only while lanes are busy, so
	// the width is the load signal: 1.0 = every request found an idle
	// lane, MaxBatch = saturated (the napmon_batch_size histogram shows
	// the shape the mean hides). Both come from one atomic snapshot, so
	// the ratio is exact even while lanes are completing batches
	// concurrently.
	Batches       uint64
	MeanBatchSize float64
	// P50 and P99 are end-to-end request latency percentiles (enqueue to
	// verdict) over every request served since start, estimated from a
	// log-bucketed histogram with ≤1/32 relative error; zero until the
	// first request is served.
	P50 time.Duration
	P99 time.Duration
	// Stages breaks the pipeline down: per-stage latency percentiles
	// keyed by stage name. "queue" (enqueue → coalescer pickup),
	// "coalesce" (pickup → hand-off to a lane: no timer runs here, so
	// this is where "every lane was busy" shows) and "total" (enqueue →
	// verdict) are per-request distributions; "dispatch" (hand-off →
	// lane running; the hand-off is stamped when it happens, never when
	// the coalescer started waiting), "inference" (forward pass + pattern
	// extraction) and "zone_query" (comfort-zone membership) are
	// per-batch. For a request that rode alone the first five add up to
	// its total.
	Stages map[string]StageLatency
	// Monitored and OutOfPattern are the monitor's cumulative verdict
	// tallies across all classes — the paper's safety signal, summed
	// (per-class resolution is on /metrics). Unmonitored counts verdicts
	// the monitor abstained on.
	Monitored    uint64
	OutOfPattern uint64
	Unmonitored  uint64
	// Gamma is the serving enlargement level of the current epoch.
	Gamma int
	// Lanes is the number of serving lanes (network replicas).
	Lanes int
	// Epoch is the id of the monitor epoch currently serving; it starts
	// at 1 (the build epoch) and increments with every online update
	// published through Server.Update/UpdateGamma (or directly on the
	// monitor).
	Epoch uint64
	// Updates counts the epochs the monitor has published since it was
	// built or loaded (Updater.Published), through this server or
	// directly; an update that changes nothing publishes none.
	Updates uint64
	// Recompiled counts the zone folds online updates have run
	// (Updater.Recompiled). A learn appends to the touched zones'
	// overlays and recompiles nothing until a zone's overlay would pass
	// its cap; then only that zone folds, and the lanes keep serving every
	// other class from the shared compiled plans — so this growing much
	// slower than Updates × classes is the learn-costs-the-delta
	// property, observable from /stats.
	Recompiled uint64
}

// StageLatency is one pipeline stage's latency percentiles.
type StageLatency struct {
	P50 time.Duration
	P99 time.Duration
	// Count is how many observations the percentiles summarize
	// (requests for per-request stages, batches for per-batch ones).
	Count uint64
}

// stageNames lists the pipeline stages in flow order; stageStats.hist
// is indexed by these positions.
var stageNames = [...]string{"queue", "coalesce", "dispatch", "inference", "zone_query", "total"}

const (
	stageQueue = iota
	stageCoalesce
	stageDispatch
	stageInference
	stageZoneQuery
	stageTotal
	numStages
)

// stageStats holds one lock-free histogram per pipeline stage. Recording
// is a pair of atomic adds per observation — no mutex, no sample
// retention — so many lanes record concurrently without contention; the
// old latencyRing serialized every request on one lock and paid a
// copy+sort per scrape (BenchmarkStatsRecord holds the comparison).
// Values are nanoseconds.
type stageStats struct {
	hist [numStages]obs.Histogram
}

func (st *stageStats) record(stage int, d time.Duration) {
	st.hist[stage].Record(d.Nanoseconds())
}

// latency summarizes one stage from a fresh snapshot.
func (st *stageStats) latency(stage int) StageLatency {
	snap := st.hist[stage].Snapshot()
	return StageLatency{
		P50:   time.Duration(snap.Quantile(0.50)),
		P99:   time.Duration(snap.Quantile(0.99)),
		Count: snap.Count(),
	}
}

// servedCounts is the (served, batches) pair behind Stats.MeanBatchSize.
// Lanes publish updates by swapping a fresh immutable pair in with CAS,
// so a reader's single pointer load observes both counters from the
// same instant — the two-independent-loads race that used to skew the
// mean under load is structurally gone.
type servedCounts struct {
	served  uint64
	batches uint64
}
