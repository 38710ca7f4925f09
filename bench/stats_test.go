package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileAndMedian(t *testing.T) {
	asc := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if got := percentile(asc, c.p); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	if got := median([]float64{4, 1, 3}); got != 3 {
		t.Errorf("median(4,1,3) = %g, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %g, want 2.5", got)
	}
}

// The tail reported is the highest ladder percentile with at least ten
// samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{50, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9}, {100000, 99.99}} {
		asc := make([]float64, c.n)
		for i := range asc {
			asc[i] = float64(i + 1)
		}
		p, v := tailPercentile(asc)
		if p != c.want {
			t.Errorf("n=%d: tail percentile p%g, want p%g", c.n, p, c.want)
		}
		if beyond := float64(c.n) - v; p > 50 && beyond < 10 {
			t.Errorf("n=%d: only %g samples beyond p%g", c.n, beyond, p)
		}
	}
}

// Expected values are what Python prints for
// q = statistics.quantiles(v, n=4); (q[2]-q[0])/q[1].
func TestQuartileSpreadMatchesPython(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 1.0},
		{[]float64{10, 12, 11, 13, 9, 10.5, 11.5, 12.5, 9.5, 10}, 0.20930232558139536},
		{[]float64{3, 1}, 1.5},
		{[]float64{5, 7, 9}, 0.5714285714285714},
	} {
		if got := quartileSpread(c.v); !near(got, c.want) {
			t.Errorf("quartileSpread(%v) = %.17g, want %.17g", c.v, got, c.want)
		}
	}
	if got := quartileSpread([]float64{7}); got != 0 {
		t.Errorf("spread of one value = %g, want 0", got)
	}
}

func TestWindowsSplitAnOperationByOverlap(t *testing.T) {
	start := time.Unix(100, 0)
	at := func(ms int) time.Time { return start.Add(time.Duration(ms) * time.Millisecond) }
	w := newWindows(start, 4*time.Second, 4)
	w.add(at(900), at(1100), 180)  // half before the first edge, half after
	w.add(at(2500), at(2500), 1)   // an instant lands whole in its window
	w.add(at(3900), at(4100), 100) // half of it is past the end and is lost
	w.add(at(5000), at(5000), 1)   // a straggler after the phase counts nowhere
	want := []float64{90, 90, 1, 50}
	for i, r := range w.rates() {
		if !near(r, want[i]) { // windows are one second wide, so rate == units
			t.Errorf("window %d: %g units/s, want %g", i, r, want[i])
		}
	}
}

// fakeClock is a clock that only moves when slept on.
type fakeClock struct {
	now   time.Time
	slept []time.Duration
}

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) Sleep(d time.Duration) {
	c.slept = append(c.slept, d)
	c.now = c.now.Add(d)
}

func TestScheduleChargesFromDueTime(t *testing.T) {
	start := time.Unix(100, 0)
	s := newSchedule(start, 200) // every 5 ms
	if s.interval != 5*time.Millisecond {
		t.Fatalf("interval %v, want 5ms", s.interval)
	}
	if got := s.count(time.Second); got != 200 {
		t.Errorf("count(1s) = %d, want 200", got)
	}
	clk := &fakeClock{now: start}

	// On time: sleeps exactly until the request is due.
	due := s.wait(3, clk.Now, clk.Sleep)
	if want := start.Add(15 * time.Millisecond); !due.Equal(want) || !clk.now.Equal(want) {
		t.Errorf("wait(3): due %v, clock %v, want both %v", due, clk.now, want)
	}
	if late := lateness(due, clk.now); late != 0 {
		t.Errorf("lateness on time = %v, want 0", late)
	}

	// A 42 ms stall: requests 4..11 are already due, so the generator
	// sends them without sleeping, and each is charged from its own due
	// time, not from when it was finally sent.
	clk.now = clk.now.Add(42 * time.Millisecond)
	slept := len(clk.slept)
	for i := 4; i <= 11; i++ {
		due := s.wait(i, clk.Now, clk.Sleep)
		if want := start.Add(time.Duration(i) * 5 * time.Millisecond); !due.Equal(want) {
			t.Errorf("wait(%d) due %v, want %v", i, due, want)
		}
		if got, want := lateness(due, clk.now), clk.now.Sub(due); got != want || got <= 0 {
			t.Errorf("request %d: lateness %v, want %v", i, got, want)
		}
	}
	if len(clk.slept) != slept {
		t.Errorf("generator slept %d times while behind schedule", len(clk.slept)-slept)
	}
	// Caught up: request 12 is due at 60 ms, the clock reads 57 ms.
	if s.wait(12, clk.Now, clk.Sleep); clk.slept[len(clk.slept)-1] != 3*time.Millisecond {
		t.Errorf("after catching up slept %v, want 3ms", clk.slept[len(clk.slept)-1])
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	spans := []span{
		{Name: "request", ID: 1, Start: 0, End: 1000_000},
		{Name: "client.encode", ID: 2, Parent: 1, Start: 0, End: 100_000},
		{Name: "client.wait", ID: 3, Parent: 1, Start: 150_000, End: 900_000},
		{Name: "client.decode", ID: 4, Parent: 1, Start: 900_000, End: 1100_000}, // clipped to the root
	}
	got := map[string]selfTime{}
	for _, r := range selfTimes(spans) {
		got[r.name] = r
	}
	if r := got["request"]; !near(r.p50Us, 1000) || !near(r.selfUs, 50) {
		t.Errorf("request: p50 %g us self %g us, want 1000 and 50 (the gap no child covers)", r.p50Us, r.selfUs)
	}
	if r := got["client.wait"]; !near(r.selfUs, 750) || !near(r.shareOfRootPct, 75) {
		t.Errorf("client.wait: self %g us share %g%%, want 750 and 75", r.selfUs, r.shareOfRootPct)
	}
}
