// Manager-sharded build: every monitored class owns an independent BDD
// manager, so per-class insertion and Hamming enlargement are mutually
// independent single-writer workloads — the build-side half of the
// ROADMAP's "shard one monitor across multiple BDD managers" item. The
// helpers here fan that work out over a bounded worker pool with results
// that are deterministic regardless of worker count: each class's
// patterns are applied in training order inside one goroutine, and a
// class never shares a manager with another, so the per-class BDDs are
// identical to a sequential build bit for bit.

package core

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"napmon/internal/bdd"
)

// forEachClass runs fn(i, classes[i]) once per class on up to GOMAXPROCS
// workers. Workers claim classes off an atomic cursor, so imbalanced
// classes (one hot class with most of the training set) don't serialize
// the rest.
func forEachClass(classes []int, fn func(i, c int)) {
	workers := min(runtime.GOMAXPROCS(0), len(classes))
	if workers <= 1 {
		for i, c := range classes {
			fn(i, c)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(classes) {
					return
				}
				fn(i, classes[i])
			}
		}()
	}
	wg.Wait()
}

// buildZones is the sharded core of Algorithm 1's zone phase: one zone
// per key of perClass, built from that class's patterns (in the order
// given), enlarged to γ and frozen, with classes spread across the worker
// pool. Every pattern must have the given width. It returns the zones and
// the summed counters of their build sessions.
func buildZones(perClass map[int][]Pattern, width, gamma int) (map[int]*Zone, bdd.Stats, error) {
	if err := checkGamma(gamma, width); err != nil {
		return nil, bdd.Stats{}, err
	}
	classes := make([]int, 0, len(perClass))
	for c := range perClass {
		classes = append(classes, c)
	}
	sort.Ints(classes)
	built := make([]*Zone, len(classes))
	sessions := make([]bdd.Stats, len(classes))
	forEachClass(classes, func(i, c int) {
		b := newZoneBuilder(width, gamma)
		for _, p := range perClass[c] {
			b.insert(p)
		}
		built[i], sessions[i] = b.freeze()
	})
	zones := make(map[int]*Zone, len(classes))
	var total bdd.Stats
	for i, c := range classes {
		zones[c] = built[i]
		addStats(&total, sessions[i])
	}
	return zones, total, nil
}
