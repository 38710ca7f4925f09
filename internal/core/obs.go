// Serving-signal counters: the paper-level observability surface of the
// monitor. The out-of-pattern rate is the operational safety signal the
// whole construction exists to produce, so the monitor counts every
// verdict it issues — per class, since a fleet alert on "class 3 started
// going out of pattern" is actionable where a global rate is noise — and
// meters where serving time goes (inference vs zone query) and what
// epoch swaps cost. The counters are plain atomics with accessor
// methods; core deliberately does not import internal/obs — the serve
// layer bridges these accessors into its metric registry as scrape-time
// callbacks, so the monitor pays a handful of uncontended atomic adds
// per chunk and nothing per scrape.

package core

import (
	"sort"
	"sync/atomic"

	"napmon/internal/bdd"
)

// watchCounters tallies one class's verdicts.
type watchCounters struct {
	watched atomic.Uint64 // verdicts with Monitored == true
	oop     atomic.Uint64 // of those, OutOfPattern == true
}

// initWatchCounters allocates the per-class counter map from the first
// epoch's zone set, before the monitor escapes: online updates cannot add
// classes (UpdateBatch rejects unmonitored classes), so the map's key
// set is immutable and concurrent lookups need no locking.
func (m *Monitor) initWatchCounters(zones map[int]*Zone) {
	m.wc = make(map[int]*watchCounters, len(zones))
	for c := range zones {
		m.wc[c] = &watchCounters{}
	}
}

// countVerdict tallies one issued verdict.
func (m *Monitor) countVerdict(class int, monitored, oop bool) {
	if !monitored {
		m.unmonitored.Add(1)
		return
	}
	if c := m.wc[class]; c != nil {
		c.watched.Add(1)
		if oop {
			c.oop.Add(1)
		}
	}
}

// WatchCount is one class's cumulative verdict tally.
type WatchCount struct {
	// Watched counts verdicts where the class was monitored.
	Watched uint64
	// OutOfPattern counts watched verdicts that fell outside the
	// γ-comfort zone — the paper's safety signal.
	OutOfPattern uint64
}

// WatchClasses returns the monitored class ids in ascending order —
// the stable label set under which per-class counters are exported.
func (m *Monitor) WatchClasses() []int {
	cs := make([]int, 0, len(m.wc))
	for c := range m.wc {
		cs = append(cs, c)
	}
	sort.Ints(cs)
	return cs
}

// WatchCountsFor returns one class's cumulative verdict tally since
// construction, without allocating; a class the monitor does not
// monitor reads zero.
func (m *Monitor) WatchCountsFor(class int) WatchCount {
	wc := m.wc[class]
	if wc == nil {
		return WatchCount{}
	}
	return WatchCount{Watched: wc.watched.Load(), OutOfPattern: wc.oop.Load()}
}

// WatchTotals returns the cumulative verdict tallies across all classes
// plus the count of verdicts the monitor abstained on (predicted class
// had no zone).
func (m *Monitor) WatchTotals() (watched, outOfPattern, unmonitored uint64) {
	for _, wc := range m.wc {
		watched += wc.watched.Load()
		outOfPattern += wc.oop.Load()
	}
	return watched, outOfPattern, m.unmonitored.Load()
}

// InferenceNanos returns cumulative nanoseconds the serving paths spent
// in batched forward passes and pattern extraction.
func (m *Monitor) InferenceNanos() int64 { return m.infNs.Load() }

// ZoneQueryNanos returns cumulative nanoseconds the serving paths spent
// in comfort-zone membership queries.
func (m *Monitor) ZoneQueryNanos() int64 { return m.zoneNs.Load() }

// BatchTiming receives the per-call stage split of one batched watch:
// how long the chunk spent in inference (forward pass + pattern
// extraction) versus zone membership queries. Passed to
// WatchBatchPooledTimed by serving lanes that feed per-stage latency
// histograms; fields accumulate so one BatchTiming can span several
// chunks.
type BatchTiming struct {
	InferenceNs int64
	ZoneQueryNs int64
}

// addStats accumulates s into total (Frozen aside).
func addStats(total *bdd.Stats, s bdd.Stats) {
	total.Nodes += s.Nodes
	total.UniqueHits += s.UniqueHits
	total.UniqueMisses += s.UniqueMisses
	total.CacheHits += s.CacheHits
	total.CacheMisses += s.CacheMisses
	total.UniqueCap += s.UniqueCap
	total.CacheCap += s.CacheCap
	total.Compiles += s.Compiles
}

// foldBDD keeps the counters of a finished zone build session; its nodes
// and tables went with its manager.
func (m *Monitor) foldBDD(session bdd.Stats) {
	session.Nodes, session.UniqueCap, session.CacheCap = 0, 0, 0
	m.bddMu.Lock()
	addStats(&m.bddDone, session)
	m.bddMu.Unlock()
}

// ManagerStatsTotal reports the monitor's BDD work and size. The hit,
// miss and compile counters are cumulative over every build session (the
// initial build, each zone fold) and never decrease. Nodes is what exists
// now: the branches of every cached level's plan in the serving epoch,
// the overlays left out. No manager outlives its session, so Frozen is
// always set and the table capacities are zero.
func (m *Monitor) ManagerStatsTotal() bdd.Stats {
	m.bddMu.Lock()
	total := m.bddDone
	m.bddMu.Unlock()
	total.Frozen = true
	for _, z := range m.cur.Load().zones {
		for _, p := range z.plans {
			total.Nodes += p.Len()
		}
	}
	return total
}

// SwapNanos returns the cumulative and most-recent wall time of epoch
// publications (shadow-build through pointer swap) — the serve-while-
// retraining cost signal.
func (u *Updater) SwapNanos() (total, last int64) {
	return u.swapNsTotal.Load(), u.swapNsLast.Load()
}

// recordSwap accumulates one publication's duration.
func (u *Updater) recordSwap(ns int64) {
	u.swapNsTotal.Add(ns)
	u.swapNsLast.Store(ns)
}
