//go:build go1.24

package core

import (
	"runtime"
	"testing"
	"weak"

	"napmon/internal/rng"
)

// TestRetiredGenerationIsCollected pins that nothing in the monitor keeps
// a replaced generation alive: once updates have replaced every class's
// epoch-1 zone and the reader holding epoch 1 has returned, the collector
// reclaims every epoch-1 zone.
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
	for c := range built {
		built[c] = weak.Make(mon.Zone(c))
	}

	e := mon.cur.Load() // a reader still on epoch 1
	for c := 0; c < classes; c++ {
		if _, err := mon.Update(c, randomPatterns(r, 2, width)...); err != nil {
			t.Fatal(err)
		}
	}
	if e.zones[0] != built[0].Value() {
		t.Fatal("the epoch-1 reader lost its generation")
	}
	e = nil

	runtime.GC()
	for c, w := range built {
		if w.Value() != nil {
			t.Fatalf("class %d: the epoch-1 zone is still reachable after every class was replaced", c)
		}
	}
	runtime.KeepAlive(mon)
}
