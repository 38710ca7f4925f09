// Online zone updates: epoch-based read-copy-update over the monitor's
// comfort zones (DESIGN.md, "Online updates: epochs, grace periods"). The
// monitor keeps serving while an update shadow-builds successors for the
// touched zones on builders re-derived from their plans; the finished
// generation is published with one atomic pointer swap. A reader loads the
// current epoch once per batch, so a batch never mixes zones from two
// generations. An epoch is plans and nothing else, so a retired one needs
// no release step: the garbage collector takes it once the last batch
// holding the pointer returns.

package core

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"
)

// epoch is one immutable generation of the monitor's serving state.
type epoch struct {
	id    uint64
	gamma int
	zones map[int]*Zone
}

// Updater holds the monitor's online-update counters. The updates
// themselves are Monitor.Update, UpdateBatch and UpdateGamma.
type Updater struct {
	published  atomic.Uint64 // epochs published after the build epoch
	absorbed   atomic.Uint64 // patterns absorbed across all updates
	recompiled atomic.Uint64 // zones whose query plans were rebuilt by updates

	// swap wall time, shadow-build through pointer swap (see obs.go)
	swapNsTotal atomic.Int64
	swapNsLast  atomic.Int64
}

// Published returns how many epochs have been published by updates (the
// build epoch is not counted).
func (u *Updater) Published() uint64 { return u.published.Load() }

// Absorbed returns the total number of patterns absorbed by updates.
func (u *Updater) Absorbed() uint64 { return u.absorbed.Load() }

// Recompiled returns how many zones updates have rebuilt (derived,
// extended, recompiled). Epoch swaps pay that only for the zones they
// actually touch — an UpdateBatch rebuilds exactly the delta'd classes,
// an UpdateGamma to a cached level rebuilds nothing — so this counter growing
// slower than Published × classes is that property made observable (the
// epoch-swap tests assert on it).
func (u *Updater) Recompiled() uint64 { return u.recompiled.Load() }

// Updater returns the monitor's online-update counters.
func (m *Monitor) Updater() *Updater { return &m.upd }

// Update absorbs new activation patterns into one class's comfort zone and
// publishes a new serving epoch; see UpdateBatch. It returns the id of the
// epoch now serving.
func (m *Monitor) Update(class int, pats ...Pattern) (uint64, error) {
	return m.UpdateBatch(map[int][]Pattern{class: pats})
}

// UpdateBatch absorbs new activation patterns into the monitored classes'
// zones and publishes the result as a new epoch. delta maps class →
// patterns to add; every class must be monitored and every pattern must
// match the monitored width. The zones of untouched classes are shared
// with the previous epoch; each touched zone is rebuilt with the delta
// folded into every cached enlargement level (Zone.cloneWithDelta: the
// fold scales with the delta, the rebuild around it with the zone).
// Serving never pauses: readers holding the old epoch finish on it, new
// batches see the new one. Returns the published epoch id; with an empty
// delta, the current id without publishing.
func (m *Monitor) UpdateBatch(delta map[int][]Pattern) (uint64, error) {
	m.updMu.Lock()
	defer m.updMu.Unlock()
	cur := m.cur.Load() // stable: only updates swap, and we hold the lock
	total := 0
	for c, pats := range delta {
		z, ok := cur.zones[c]
		if !ok {
			return cur.id, fmt.Errorf("core: update for unmonitored class %d", c)
		}
		for _, p := range pats {
			if len(p) != z.Width() {
				return cur.id, fmt.Errorf("core: update pattern width %d does not match zone width %d (class %d)",
					len(p), z.Width(), c)
			}
		}
		total += len(pats)
	}
	if total == 0 {
		return cur.id, nil
	}
	tStart := time.Now()
	defer func() { m.upd.recordSwap(time.Since(tStart).Nanoseconds()) }()
	zones := make(map[int]*Zone, len(cur.zones))
	for c, z := range cur.zones {
		zones[c] = z
	}
	// Deterministic shadow-build order (map iteration is not) so repeated
	// update sequences build identical BDDs.
	classes := make([]int, 0, len(delta))
	for c := range delta {
		classes = append(classes, c)
	}
	sort.Ints(classes)
	for _, c := range classes {
		if len(delta[c]) == 0 {
			continue
		}
		nz, session := cur.zones[c].cloneWithDelta(delta[c])
		m.foldBDD(session)
		zones[c] = nz
		m.upd.recompiled.Add(1)
	}
	id := m.publish(cur, zones, cur.gamma)
	m.upd.absorbed.Add(uint64(total))
	return id, nil
}

// UpdateGamma publishes a new epoch whose zones are queried at a different
// enlargement level. Cached levels are re-viewed in place — the new zones
// share the plans, nothing is copied and nothing is rebuilt; a deeper
// level shadow-builds the missing expansions on managers re-derived from
// the plans. The serving γ changes atomically for whole batches, never
// per query.
func (m *Monitor) UpdateGamma(gamma int) (uint64, error) {
	if err := checkGamma(gamma, len(m.neurons)); err != nil {
		return 0, err
	}
	m.updMu.Lock()
	defer m.updMu.Unlock()
	cur := m.cur.Load()
	if gamma == cur.gamma {
		return cur.id, nil
	}
	tStart := time.Now()
	defer func() { m.upd.recordSwap(time.Since(tStart).Nanoseconds()) }()
	zones := make(map[int]*Zone, len(cur.zones))
	for c, z := range cur.zones {
		nz, session := z.cloneAtGamma(gamma)
		if session.Compiles > 0 { // a deeper level was built; a re-view shares the plans
			m.foldBDD(session)
			m.upd.recompiled.Add(1)
		}
		zones[c] = nz
	}
	return m.publish(cur, zones, gamma), nil
}

// publish swaps in the successor of old. Callers hold m.updMu.
func (m *Monitor) publish(old *epoch, zones map[int]*Zone, gamma int) uint64 {
	next := &epoch{id: old.id + 1, gamma: gamma, zones: zones}
	m.cur.Store(next)
	m.upd.published.Add(1)
	return next.id
}

// Epoch returns the id of the epoch currently serving (1 for the build
// epoch, incremented by every published update).
func (m *Monitor) Epoch() uint64 { return m.cur.Load().id }
