package core

import (
	"testing"

	"napmon/internal/rng"
)

// TestWatchCounters pins the per-class verdict tallies: every
// WatchPattern call lands in exactly one of watched/unmonitored, OOP
// verdicts are counted per class, and totals agree with the per-class
// sums.
func TestWatchCounters(t *testing.T) {
	r := rng.New(91)
	const width = 12
	perClass := map[int][]Pattern{
		0: randomPatterns(r, 8, width),
		2: randomPatterns(r, 5, width),
	}
	mon, err := BuildFromPatterns(width, 0, perClass)
	if err != nil {
		t.Fatal(err)
	}
	if cs := mon.WatchClasses(); len(cs) != 2 || cs[0] != 0 || cs[1] != 2 {
		t.Fatalf("WatchClasses = %v", cs)
	}
	wantWatched, wantOOP := map[int]uint64{}, map[int]uint64{}
	var wantUnmon uint64
	// Known-in patterns, random patterns and an unmonitored class.
	for c, pats := range perClass {
		for _, p := range pats {
			oop, monitored := mon.WatchPattern(c, p)
			if !monitored || oop {
				t.Fatalf("class %d visited pattern: oop=%v monitored=%v", c, oop, monitored)
			}
			wantWatched[c]++
		}
	}
	for i := 0; i < 20; i++ {
		p := randomPatterns(r, 1, width)[0]
		for _, c := range []int{0, 2} {
			oop, _ := mon.WatchPattern(c, p)
			wantWatched[c]++
			if oop {
				wantOOP[c]++
			}
		}
		if _, monitored := mon.WatchPattern(7, p); monitored {
			t.Fatal("class 7 should be unmonitored")
		}
		wantUnmon++
	}
	for c := range perClass {
		got := mon.WatchCountsFor(c)
		if got.Watched != wantWatched[c] || got.OutOfPattern != wantOOP[c] {
			t.Fatalf("class %d counts = %+v, want watched=%d oop=%d",
				c, got, wantWatched[c], wantOOP[c])
		}
	}
	if got := mon.WatchCountsFor(7); got != (WatchCount{}) {
		t.Fatalf("unmonitored class 7 counts %+v, want zero", got)
	}
	watched, oop, unmon := mon.WatchTotals()
	if watched != wantWatched[0]+wantWatched[2] || oop != wantOOP[0]+wantOOP[2] || unmon != wantUnmon {
		t.Fatalf("WatchTotals = (%d, %d, %d), want (%d, %d, %d)",
			watched, oop, unmon, wantWatched[0]+wantWatched[2], wantOOP[0]+wantOOP[2], wantUnmon)
	}
}

// TestSwapNanos checks that epoch publications record their wall time
// and no-op updates do not.
func TestSwapNanos(t *testing.T) {
	r := rng.New(17)
	const width = 10
	mon, err := BuildFromPatterns(width, 1, map[int][]Pattern{0: randomPatterns(r, 4, width)})
	if err != nil {
		t.Fatal(err)
	}
	u := mon.Updater()
	if total, last := u.SwapNanos(); total != 0 || last != 0 {
		t.Fatalf("pre-update SwapNanos = (%d, %d)", total, last)
	}
	if _, err := mon.Update(0, randomPatterns(r, 2, width)...); err != nil {
		t.Fatal(err)
	}
	total1, last1 := u.SwapNanos()
	if total1 <= 0 || last1 <= 0 || last1 > total1 {
		t.Fatalf("after one update SwapNanos = (%d, %d)", total1, last1)
	}
	if _, err := mon.UpdateBatch(nil); err != nil { // empty delta: no publication
		t.Fatal(err)
	}
	if total, _ := u.SwapNanos(); total != total1 {
		t.Fatalf("empty delta recorded a swap: %d != %d", total, total1)
	}
	if _, err := mon.UpdateGamma(2); err != nil {
		t.Fatal(err)
	}
	total2, _ := u.SwapNanos()
	if total2 <= total1 {
		t.Fatalf("UpdateGamma did not record a swap: %d <= %d", total2, total1)
	}
}

// TestManagerStatsTotal checks the BDD statistics accessor: a built
// monitor's counters are what its build sessions did before their
// managers went, Nodes is the branches of the plans they left, there are
// no tables left to have a capacity, a learn below the overlay cap
// changes nothing, and a fold only ever adds.
func TestManagerStatsTotal(t *testing.T) {
	r := rng.New(5)
	const width = 10
	perClass := map[int][]Pattern{
		1: randomPatterns(r, 6, width),
		4: randomPatterns(r, 3, width),
	}
	mon, err := BuildFromPatterns(width, 1, perClass)
	if err != nil {
		t.Fatal(err)
	}
	st := mon.ManagerStatsTotal()
	wantNodes := 0
	for _, c := range mon.Classes() {
		for _, p := range mon.Zone(c).plans {
			wantNodes += p.Len()
		}
	}
	if st.Nodes != wantNodes || wantNodes == 0 {
		t.Fatalf("ManagerStatsTotal.Nodes = %d, want %d plan branches", st.Nodes, wantNodes)
	}
	if !st.Frozen {
		t.Fatal("ManagerStatsTotal.Frozen = false")
	}
	if st.UniqueCap != 0 || st.CacheCap != 0 {
		t.Fatalf("a built monitor reports table capacities: %+v", st)
	}
	if st.UniqueMisses == 0 || st.CacheMisses == 0 {
		t.Fatalf("the build's counters were lost: %+v", st)
	}
	if st.Compiles != 2*2 {
		t.Fatalf("Compiles = %d after building 2 zones of 2 levels", st.Compiles)
	}

	// A learn below the overlay cap builds no BDD: every counter, and
	// Nodes (plan branches, the overlay left out), stays put.
	if _, err := mon.Update(4, randomPatterns(r, 2, width)...); err != nil {
		t.Fatal(err)
	}
	if after := mon.ManagerStatsTotal(); after != st {
		t.Fatalf("a learn below the cap changed the BDD statistics: %+v, before %+v", after, st)
	}
	// The learn that pushes the overlay past the cap folds one zone of
	// two levels, and a fold only ever adds.
	if _, err := mon.Update(4, randomPatterns(r, overlayCap, width)...); err != nil {
		t.Fatal(err)
	}
	after := mon.ManagerStatsTotal()
	if after.Compiles != st.Compiles+2 || after.UniqueMisses <= st.UniqueMisses || after.CacheMisses <= st.CacheMisses ||
		after.UniqueHits < st.UniqueHits || after.CacheHits < st.CacheHits {
		t.Fatalf("a fold must only add: %+v, before %+v", after, st)
	}
}
