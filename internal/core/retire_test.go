//go:build go1.24

package core

import (
	"runtime"
	"testing"
	"weak"

	"napmon/internal/bdd"
	"napmon/internal/rng"
)

// TestRetiredGenerationIsCollected pins that nothing in the monitor keeps
// a replaced generation alive: once learns have replaced every class's
// epoch-1 zone — first by overlay appends on the same plans, then by
// folds that compile new ones — and the reader holding epoch 1 has
// returned, the collector reclaims every epoch-1 zone, every overlay
// zone in between and the epoch-1 plans.
func TestRetiredGenerationIsCollected(t *testing.T) {
	r := rng.New(71)
	const classes, width = 3, 16
	perClass := make(map[int][]Pattern, classes)
	for c := 0; c < classes; c++ {
		perClass[c] = randomPatterns(r, 20, width)
	}
	mon, err := BuildFromPatterns(width, 1, perClass)
	if err != nil {
		t.Fatal(err)
	}
	built := make([]weak.Pointer[Zone], classes)
	overlaid := make([]weak.Pointer[Zone], classes)
	plans := make([]weak.Pointer[bdd.Compiled], classes)
	for c := range built {
		built[c] = weak.Make(mon.Zone(c))
		plans[c] = weak.Make(mon.Zone(c).plans[0])
	}

	e := mon.cur.Load() // a reader still on epoch 1
	for c := 0; c < classes; c++ {
		if _, err := mon.Update(c, randomPatterns(r, 2, width)...); err != nil {
			t.Fatal(err)
		}
		if z := mon.Zone(c); z.plans[0] != plans[c].Value() {
			t.Fatalf("class %d: a learn below the cap did not keep the plans", c)
		}
		overlaid[c] = weak.Make(mon.Zone(c))
	}
	for c := 0; c < classes; c++ {
		if _, err := mon.Update(c, randomPatterns(r, overlayCap, width)...); err != nil {
			t.Fatal(err)
		}
		if z := mon.Zone(c); z.pending() != 0 || z.plans[0] == plans[c].Value() {
			t.Fatalf("class %d: the learn past the cap did not fold the plans away", c)
		}
	}
	if e.zones[0] != built[0].Value() {
		t.Fatal("the epoch-1 reader lost its generation")
	}
	e = nil

	runtime.GC()
	for c := 0; c < classes; c++ {
		if built[c].Value() != nil {
			t.Fatalf("class %d: the epoch-1 zone is still reachable after every class was replaced", c)
		}
		if overlaid[c].Value() != nil {
			t.Fatalf("class %d: an overlay zone is still reachable after its class folded", c)
		}
		if plans[c].Value() != nil {
			t.Fatalf("class %d: the epoch-1 plans are still reachable after they were folded away", c)
		}
	}
	runtime.KeepAlive(mon)
}
