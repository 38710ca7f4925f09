// Online zone updates: epoch-based read-copy-update over the monitor's
// comfort zones (DESIGN.md, "Online updates: epochs, grace periods"). The
// monitor keeps serving while an Updater shadow-builds successors for the
// touched zones on builders re-derived from their plans; the finished
// generation is published with one atomic pointer swap. Readers pin the
// current epoch per batch, so a batch never mixes zones from two
// generations. An epoch is plans and nothing else,
// so a retired one needs no release step: its refcount only times the
// grace period.

package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// epoch is one immutable generation of the monitor's serving state: a set
// of zones plus the reference count that times its grace period.
type epoch struct {
	id    uint64
	gamma int
	zones map[int]*Zone

	// refs counts the epoch's pinned readers plus one reference for being
	// the monitor's current epoch. Publication of a successor drops the
	// current-reference; when refs drains to zero the epoch's grace period
	// has ended.
	refs atomic.Int64
	// drainOnce guards the drain count: the refcount can be resurrected
	// transiently by a racing acquire (pin-validate-unpin), so zero may be
	// observed more than once.
	drainOnce sync.Once
	drained   *atomic.Uint64 // the updater's ReleasedEpochs counter
}

func newEpoch(id uint64, gamma int, zones map[int]*Zone, drained *atomic.Uint64) *epoch {
	e := &epoch{id: id, gamma: gamma, zones: zones, drained: drained}
	e.refs.Store(1) // the monitor's current-epoch reference
	return e
}

// unpin drops one reference; the last one out counts the epoch as
// drained, exactly once.
func (e *epoch) unpin() {
	if e.refs.Add(-1) == 0 {
		e.drainOnce.Do(func() { e.drained.Add(1) })
	}
}

// acquire pins the monitor's current epoch for a batch of reads. The
// load-increment-validate loop closes the race with a concurrent
// publication: if the epoch was swapped out between the load and the
// increment, the increment may have resurrected a draining epoch — drop
// the pin and retry on the fresh pointer. Callers must unpin exactly once.
func (m *Monitor) acquire() *epoch {
	for {
		e := m.cur.Load()
		e.refs.Add(1)
		if m.cur.Load() == e {
			return e
		}
		e.unpin()
	}
}

// Updater is the monitor's online-update engine: it shadow-builds zone
// deltas on re-derived managers while the current epoch keeps serving, then
// publishes the new generation atomically. All updates are serialized
// through the updater's mutex (single writer, many readers); the serving
// paths never block on it.
type Updater struct {
	m  *Monitor
	mu sync.Mutex

	published  atomic.Uint64 // epochs published after the build epoch
	absorbed   atomic.Uint64 // patterns absorbed across all updates
	released   atomic.Uint64 // retired epochs whose grace period has ended
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

// ReleasedEpochs returns how many retired epochs have completed their
// grace period: all pinned readers drained, nothing references the
// generation any more.
func (u *Updater) ReleasedEpochs() uint64 { return u.released.Load() }

// Recompiled returns how many zones updates have rebuilt (derived,
// extended, recompiled). Epoch swaps pay that only for the zones they
// actually touch — an Apply rebuilds exactly the delta'd classes, an
// ApplyGamma to a cached level rebuilds nothing — so this counter growing
// slower than Published × classes is that property made observable (the
// epoch-swap tests assert on it).
func (u *Updater) Recompiled() uint64 { return u.recompiled.Load() }

// Apply absorbs new activation patterns into the monitored classes' zones
// and publishes the result as a new epoch. delta maps class → patterns to
// add; every class must be monitored and every pattern must match the
// monitored width. The zones of untouched classes are shared with the
// previous epoch; each touched zone is rebuilt with the delta folded into
// every cached enlargement level (Zone.cloneWithDelta: the fold scales
// with the delta, the rebuild around it with the zone). Serving never
// pauses: readers pinned to the old epoch finish on it, new batches see
// the new one. Returns the published epoch id; with an empty delta, the
// current id without publishing.
func (u *Updater) Apply(delta map[int][]Pattern) (uint64, error) {
	m := u.m
	u.mu.Lock()
	defer u.mu.Unlock()
	cur := m.cur.Load() // stable: only Apply/ApplyGamma swap, and we hold the lock
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
	defer func() { u.recordSwap(time.Since(tStart).Nanoseconds()) }()
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
		u.recompiled.Add(1)
	}
	id := u.publish(cur, zones, cur.gamma)
	u.absorbed.Add(uint64(total))
	return id, nil
}

// ApplyGamma publishes a new epoch whose zones are queried at a different
// enlargement level. Cached levels are re-viewed in place — the new zones
// share the plans, nothing is copied and nothing is rebuilt; a deeper
// level shadow-builds the missing expansions on managers re-derived from
// the plans. The serving γ changes atomically for whole batches, never
// per query.
func (u *Updater) ApplyGamma(gamma int) (uint64, error) {
	m := u.m
	if err := checkGamma(gamma, len(m.neurons)); err != nil {
		return 0, err
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	cur := m.cur.Load()
	if gamma == cur.gamma {
		return cur.id, nil
	}
	tStart := time.Now()
	defer func() { u.recordSwap(time.Since(tStart).Nanoseconds()) }()
	zones := make(map[int]*Zone, len(cur.zones))
	for c, z := range cur.zones {
		nz, session := z.cloneAtGamma(gamma)
		if session.Compiles > 0 { // a deeper level was built; a re-view shares the plans
			m.foldBDD(session)
			u.recompiled.Add(1)
		}
		zones[c] = nz
	}
	return u.publish(cur, zones, gamma), nil
}

// publish swaps in the new generation: store the pointer, then drop the
// old epoch's current-reference so its grace period can end. Callers hold
// u.mu.
func (u *Updater) publish(old *epoch, zones map[int]*Zone, gamma int) uint64 {
	next := newEpoch(old.id+1, gamma, zones, &u.released)
	u.m.cur.Store(next)
	u.published.Add(1)
	old.unpin()
	return next.id
}

// Updater returns the monitor's online-update engine (counters and the
// update entry points also reachable as Monitor.Update/UpdateBatch/
// UpdateGamma).
func (m *Monitor) Updater() *Updater { return &m.upd }

// Update absorbs new activation patterns into one class's comfort zone and
// publishes a new serving epoch; see Updater.Apply. It returns the id of
// the epoch now serving.
func (m *Monitor) Update(class int, pats ...Pattern) (uint64, error) {
	return m.upd.Apply(map[int][]Pattern{class: pats})
}

// UpdateBatch absorbs patterns for several classes in one epoch swap; see
// Updater.Apply.
func (m *Monitor) UpdateBatch(delta map[int][]Pattern) (uint64, error) {
	return m.upd.Apply(delta)
}

// UpdateGamma changes the serving enlargement level by publishing a new
// epoch; see Updater.ApplyGamma.
func (m *Monitor) UpdateGamma(gamma int) (uint64, error) {
	return m.upd.ApplyGamma(gamma)
}

// Epoch returns the id of the epoch currently serving (1 for the build
// epoch, incremented by every published update).
func (m *Monitor) Epoch() uint64 { return m.cur.Load().id }

// Updates returns how many update epochs have been published.
func (m *Monitor) Updates() uint64 { return m.upd.Published() }
