package main

import (
	"math"
	"sort"
	"time"
)

// The statistics the judge rests on: order statistics over latency
// samples, interpolated closed-loop throughput windows, and the open-loop
// schedule. They live apart from the workloads so stats_test.go can pin
// them without starting a server.

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// rank is the nearest-rank position (1-based) of percentile p among n
// samples. The slack keeps p*n/100 from rounding up past a whole rank
// (99.9 is not exact in binary).
func rank(p float64, n int) int {
	return max(1, int(math.Ceil(p*float64(n)/100-1e-9)))
}

// percentile is the nearest-rank percentile (0 < p <= 100) of an
// ascending slice; it returns 0 for an empty one.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	return asc[rank(p, len(asc))-1]
}

// median is the midpoint median of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder lists the tail percentiles a timing may report, lowest first.
var tailLadder = []float64{90, 99, 99.9, 99.99}

// tailPercentile returns the highest ladder percentile that still has at
// least ten samples beyond it, and its value. With fewer than a hundred
// samples no tail qualifies and it reports the median as p50.
func tailPercentile(asc []float64) (p, value float64) {
	p = 50
	for _, q := range tailLadder {
		if len(asc)-rank(q, len(asc)) >= 10 {
			p = q
		}
	}
	return p, percentile(asc, p)
}

// quartileSpread is the run-to-run spread the driver judges a metric by:
// the distance between the first and third quartile as a share of the
// median, with the quartiles taken the way Python's
// statistics.quantiles(values, n=4) takes them (the exclusive method).
// It needs at least two values.
func quartileSpread(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return 0
	}
	quart := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	med := quart(2)
	if med == 0 {
		return 0
	}
	return (quart(3) - quart(1)) / math.Abs(med)
}

// windows splits a closed-loop phase into equal sub-windows and credits
// each completed operation to the windows its interval overlaps, in
// proportion to the overlap. A 100 ms batch call that straddles a window
// edge therefore counts partly on each side, so a window's rate is not
// quantized to whole calls. One goroutine adds; rates is read afterwards.
type windows struct {
	start time.Time
	width time.Duration
	units []float64
}

func newWindows(start time.Time, total time.Duration, n int) *windows {
	return &windows{start: start, width: total / time.Duration(n), units: make([]float64, n)}
}

// add credits units of work done over [from, to].
func (w *windows) add(from, to time.Time, units float64) {
	lo, hi := from.Sub(w.start), to.Sub(w.start)
	if hi <= lo {
		if i := int(hi / w.width); hi >= 0 && i < len(w.units) {
			w.units[i] += units
		}
		return
	}
	for i := range w.units {
		a, b := time.Duration(i)*w.width, time.Duration(i+1)*w.width
		if lo > a {
			a = lo
		}
		if hi < b {
			b = hi
		}
		if b > a {
			w.units[i] += units * float64(b-a) / float64(hi-lo)
		}
	}
}

// rates returns each window's units per second.
func (w *windows) rates() []float64 {
	out := make([]float64, len(w.units))
	for i, u := range w.units {
		out[i] = u / w.width.Seconds()
	}
	return out
}

// schedule is an open-loop arrival schedule: request i is due at
// start + i*interval whether or not earlier requests have been answered.
// Latency is taken from the due time, so a stall charges every request
// it delays, and lateness says how far the generator itself fell behind.
type schedule struct {
	start    time.Time
	interval time.Duration
}

func newSchedule(start time.Time, perSecond float64) schedule {
	return schedule{start: start, interval: time.Duration(float64(time.Second) / perSecond)}
}

func (s schedule) due(i int) time.Time { return s.start.Add(time.Duration(i) * s.interval) }

// count is how many requests fall due within d.
func (s schedule) count(d time.Duration) int { return int(d / s.interval) }

// wait blocks until request i is due and returns its due time. now and
// sleep are the clock, injected so the accounting can be tested.
func (s schedule) wait(i int, now func() time.Time, sleep func(time.Duration)) time.Time {
	due := s.due(i)
	if d := due.Sub(now()); d > 0 {
		sleep(d)
	}
	return due
}

// lateness is how long after its due time a request was actually sent.
func lateness(due, sent time.Time) time.Duration {
	if sent.Before(due) {
		return 0
	}
	return sent.Sub(due)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
