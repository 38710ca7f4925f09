package main

import (
	"io"
	"testing"
	"time"
)

// The wire client against the real fleet stack: every request is
// answered and checked, in both loop kinds, and a traced phase records
// the five spans of each request under one root.
func TestRunWireChecksAndTracesEveryRequest(t *testing.T) {
	ft := &fleetTiny{}
	if err := ft.generate(1, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := ft.setUp(); err != nil {
		t.Fatal(err)
	}
	defer ft.tearDown()
	if err := ft.reference(); err != nil {
		t.Fatal(err)
	}

	closed, err := runWire(ft.conn, wireLoad{dur: 150 * time.Millisecond, window: 32, pick: ft.pick})
	if err != nil {
		t.Fatal(err)
	}
	if closed.attempted == 0 || closed.failed != 0 || len(closed.lat) != closed.attempted || len(closed.rates) != subWindows {
		t.Errorf("closed loop: attempted %d failed %d latencies %d windows %d", closed.attempted, closed.failed, len(closed.lat), len(closed.rates))
	}

	tr := newTracer()
	open, err := runWire(ft.conn, wireLoad{dur: 200 * time.Millisecond, rate: 500, pick: ft.pick, tr: tr})
	if err != nil {
		t.Fatal(err)
	}
	if open.attempted != 100 || open.failed != 0 || len(open.late) != 100 {
		t.Errorf("open loop at 500/s for 200ms: attempted %d failed %d lateness samples %d, want 100, 0, 100", open.attempted, open.failed, len(open.late))
	}
	roots, children := map[int64]bool{}, 0
	for _, s := range tr.all() {
		if s.Parent == 0 {
			roots[s.ID] = true
		}
	}
	for _, s := range tr.all() {
		if s.Parent != 0 {
			if !roots[s.Parent] {
				t.Fatalf("span %s of request %d has no root", s.Name, s.Req)
			}
			children++
		}
	}
	if len(roots) != 100 || children != 400 {
		t.Errorf("trace holds %d roots and %d children, want 100 and 400", len(roots), children)
	}

	// The check must be able to fail: corrupt one tenant's references.
	for i := range ft.want[0] {
		ft.want[0][i].OutOfPattern = !ft.want[0][i].OutOfPattern
	}
	bad, err := runWire(ft.conn, wireLoad{count: 64, window: 8, pick: ft.pick})
	if err != nil {
		t.Fatal(err)
	}
	if bad.attempted != 64 || bad.failed != 64/fleetTenants {
		t.Errorf("with tenant 0's references corrupted: attempted %d failed %d, want 64 and %d", bad.attempted, bad.failed, 64/fleetTenants)
	}
}
