package core

// Tests and benchmarks of the zone overlay: the learned patterns a zone
// keeps beside its plans until a learn pushes them past overlayCap and
// folds them in.

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"time"

	"napmon/internal/bdd"
	"napmon/internal/rng"
)

// overlayCaps are the fold schedules the differential tests compare:
// every learn folds, every multi-pattern learn folds, and the product cap.
var overlayCaps = []int{0, 1, overlayCap}

// nearPattern returns p with d distinct random bits flipped.
func nearPattern(r *rng.Source, p Pattern, d int) Pattern {
	q := p.Clone()
	for _, bit := range r.Perm(len(p))[:d] {
		q[bit] = !q[bit]
	}
	return q
}

// TestLearnStreamDifferential runs one seeded stream of learns and cached
// γ re-levels through monitors that fold at K ∈ {0, 1, overlayCap} and,
// after every step, checks that all of them answer every query exactly
// like an ExactZone (Definition 2 by brute-force Hamming distance) —
// through Contains, ContainsBatch and WatchPattern — and, after every
// third step, that their snapshots are byte-identical, whatever each one
// has pending.
func TestLearnStreamDifferential(t *testing.T) {
	const classes = 3
	for _, width := range []int{9, 40, 70, 129} {
		for gamma := 0; gamma <= 3; gamma++ {
			t.Run(fmt.Sprintf("w%d_g%d", width, gamma), func(t *testing.T) {
				r := rng.New(uint64(1000*width + gamma))
				perClass := map[int][]Pattern{}
				exact := map[int]*ExactZone{}
				for c := 0; c < classes; c++ {
					perClass[c] = randomPatterns(r, 6, width)
					exact[c] = NewExactZone(width)
					exact[c].SetGamma(gamma)
					for _, p := range perClass[c] {
						exact[c].Insert(p)
					}
				}
				mons := make([]*Monitor, len(overlayCaps))
				for i := range mons {
					var err error
					if mons[i], err = BuildFromPatterns(width, gamma, perClass); err != nil {
						t.Fatal(err)
					}
				}
				learned := map[int][]Pattern{}
				for c, pats := range perClass {
					learned[c] = append(learned[c], pats...)
				}
				pending := false
				for step := 0; step < 30; step++ {
					if step%10 == 9 { // re-level to a cached γ, overlays shared
						g := r.Intn(gamma + 1)
						for _, m := range mons {
							if _, err := m.UpdateGamma(g); err != nil {
								t.Fatal(err)
							}
						}
						for _, ez := range exact {
							ez.SetGamma(g)
						}
					} else {
						delta := map[int][]Pattern{}
						for c := 0; c < classes; c++ {
							if r.Bool(0.5) {
								continue
							}
							// Learn near what the zone holds, or anywhere.
							for n := 1 + r.Intn(12); n > 0; n-- {
								p := randomPattern(r, width)
								if r.Bool(0.5) {
									p = nearPattern(r, learned[c][r.Intn(len(learned[c]))], 1+r.Intn(gamma+2))
								}
								delta[c] = append(delta[c], p)
							}
						}
						for i, m := range mons {
							if _, err := m.learnAt(overlayCaps[i], delta); err != nil {
								t.Fatal(err)
							}
						}
						for c, pats := range delta {
							learned[c] = append(learned[c], pats...)
							for _, p := range pats {
								exact[c].Insert(p)
							}
						}
					}
					checkAgainstExact(t, step, r, mons, exact, learned)
					// A snapshot of an overlay folds it: every third prefix.
					if step%3 == 2 {
						snap := snapBytes(t, mons[0])
						for i, m := range mons[1:] {
							if !bytes.Equal(snapBytes(t, m), snap) {
								t.Fatalf("step %d: the K=%d snapshot (%d pending) differs from K=0's",
									step, overlayCaps[i+1], m.Updater().Pending())
							}
						}
					}
					if mons[0].Updater().Pending() != 0 {
						t.Fatalf("step %d: K=0 left %d patterns pending", step, mons[0].Updater().Pending())
					}
					pending = pending || mons[2].Updater().Pending() > 0
				}
				if !pending || mons[2].Updater().Recompiled() == 0 {
					t.Fatalf("at the product cap the stream left %d patterns pending and folded %d zones; it must do both",
						mons[2].Updater().Pending(), mons[2].Updater().Recompiled())
				}
			})
		}
	}
}

// randomPattern draws one uniform pattern.
func randomPattern(r *rng.Source, width int) Pattern { return randomPatterns(r, 1, width)[0] }

// checkAgainstExact queries every monitor on the learned patterns, their
// neighbours at distances up to γ+1 and uniform probes, and fails on any
// verdict that differs from the exact zone's.
func checkAgainstExact(t *testing.T, step int, r *rng.Source, mons []*Monitor, exact map[int]*ExactZone, learned map[int][]Pattern) {
	t.Helper()
	for c, ez := range exact {
		width, gamma := ez.Width(), ez.Gamma()
		queries := randomPatterns(r, 16, width)
		for i := 0; i < 24; i++ {
			p := learned[c][r.Intn(len(learned[c]))]
			queries = append(queries, nearPattern(r, p, min(r.Intn(gamma+2), width)))
		}
		want := make([]bool, len(queries))
		rows := make([][]bool, len(queries))
		for i, q := range queries {
			want[i], rows[i] = ez.Contains(q), q
		}
		out := make([]bool, len(queries))
		for mi, m := range mons {
			z := m.Zone(c)
			z.ContainsBatch(rows, out)
			for i, q := range queries {
				oop, _ := m.WatchPattern(c, q)
				if z.Contains(q) != want[i] || out[i] != want[i] || oop == want[i] {
					t.Fatalf("step %d K=%d class %d γ=%d query %d: Contains %v, ContainsBatch %v, out-of-pattern %v; exact %v",
						step, overlayCaps[mi], c, gamma, i, z.Contains(q), out[i], oop, want[i])
				}
			}
		}
	}
}

// TestOverlayWholeZoneReads pins the whole-zone reads on a zone with a
// pending overlay: PatternCount, Dot and the Manager/Root view answer on
// the folded content, while NodeCount and PlanBytes count plan branches
// only and InsertCount counts the overlay's patterns.
func TestOverlayWholeZoneReads(t *testing.T) {
	r := rng.New(52)
	const width, gamma = 12, 1
	base := randomPatterns(r, 10, width)
	delta := randomPatterns(r, 5, width)
	folded := buildZone(width, gamma, append(append([]Pattern{}, base...), delta...)...)
	z, _ := buildZone(width, gamma, base...).cloneWithDelta(delta, overlayCap)
	if z.pending() != len(delta) {
		t.Fatalf("%d patterns pending, want %d", z.pending(), len(delta))
	}
	if got, want := z.PatternCount(), folded.PatternCount(); got != want {
		t.Fatalf("PatternCount %v, folded %v", got, want)
	}
	if got, want := z.Dot("z"), folded.Dot("z"); got != want {
		t.Fatal("Dot differs from the folded zone's")
	}
	if got, want := z.InsertCount(), len(base)+len(delta); got != want {
		t.Fatalf("InsertCount %d, want %d", got, want)
	}
	if got, want := z.NodeCount(), buildZone(width, gamma, base...).NodeCount(); got != want {
		t.Fatalf("NodeCount %d, want the plans' %d", got, want)
	}
	for v := 0; v < 1<<width; v++ {
		p := make(Pattern, width)
		for i := range p {
			p[i] = v&(1<<i) != 0
		}
		if got, want := z.Manager().EvalBits(z.Root(), p), folded.Contains(p); got != want {
			t.Fatalf("pattern %s: the view says %v, the folded zone %v", p, got, want)
		}
	}
	if z.plans[gamma].SatCount() == z.PatternCount() {
		t.Fatal("the delta added nothing to the zone; the test shows nothing")
	}
}

// TestSnapshotCut pins the cut a caller takes under its own lock:
// SnapshotCut folds nothing — a few allocations on a monitor whose every
// zone has patterns pending, where one fold allocates far more — and its
// writer emits exactly the bytes Snapshot wrote at the cut, after later
// learns, a fold, and a change to the caller's tail slice.
func TestSnapshotCut(t *testing.T) {
	r := rng.New(53)
	perClass := map[int][]Pattern{}
	for c := 0; c < 3; c++ {
		perClass[c] = randomPatterns(r, 50, 40)
	}
	m, err := BuildFromPatterns(40, 2, perClass)
	if err != nil {
		t.Fatal(err)
	}
	delta := map[int][]Pattern{0: randomPatterns(r, 3, 40), 1: randomPatterns(r, 2, 40), 2: randomPatterns(r, 4, 40)}
	epoch, err := m.UpdateBatch(delta)
	if err != nil {
		t.Fatal(err)
	}
	if m.Updater().Pending() != 9 {
		t.Fatalf("%d patterns pending, want 9", m.Updater().Pending())
	}
	tail := []DeltaEntry{{Epoch: epoch, Gamma: -1, Delta: delta}}
	var want bytes.Buffer
	if err := m.Snapshot(&want, tail); err != nil {
		t.Fatal(err)
	}

	var write func(io.Writer) error
	cutAllocs := testing.AllocsPerRun(10, func() { write = m.SnapshotCut(tail) })
	foldAllocs := testing.AllocsPerRun(1, func() { foldSink = m.cur.Load().zones[0].folded() })
	if cutAllocs > 2 || foldAllocs < 20 {
		t.Fatalf("SnapshotCut allocates %v times, one fold %v: the cut must fold nothing", cutAllocs, foldAllocs)
	}
	tail[0] = DeltaEntry{Epoch: 99, Gamma: 1}
	if _, err := m.Update(0, randomPatterns(r, overlayCap, 40)...); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Update(1, randomPatterns(r, 1, 40)...); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := write(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("the cut's snapshot differs from Snapshot's at the cut")
	}
}

// learnStreamMonitor builds zone_learn_mix's monitor: 3 classes × 400
// uniform patterns of width 40 at γ = 2.
func learnStreamMonitor(tb testing.TB, r *rng.Source) *Monitor {
	perClass := map[int][]Pattern{}
	for c := 0; c < 3; c++ {
		perClass[c] = randomPatterns(r, 400, 40)
	}
	m, err := BuildFromPatterns(40, 2, perClass)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// BenchmarkLearnStream times learns into zone_learn_mix's monitor, one
// class per learn in turn, as a stream of 4·overlayCap patterns per
// class from a fresh monitor per iteration, so every learn's time
// includes the folds it triggers. ms/learn is the mean learn; folds is
// how many zones the stream folded.
func BenchmarkLearnStream(b *testing.B) {
	for _, k := range []int{overlayCap, 0} {
		for _, size := range []int{1, 4, 64} {
			b.Run(fmt.Sprintf("K%d/learn%d", k, size), func(b *testing.B) {
				r := rng.New(7)
				learns := 3 * 4 * overlayCap / size
				deltas := make([][]Pattern, learns)
				for i := range deltas {
					deltas[i] = randomPatterns(r, size, 40)
				}
				var spent time.Duration
				folds := uint64(0)
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					m := learnStreamMonitor(b, rng.New(1))
					b.StartTimer()
					t0 := time.Now()
					for j, d := range deltas {
						if _, err := m.learnAt(k, map[int][]Pattern{j % 3: d}); err != nil {
							b.Fatal(err)
						}
					}
					spent += time.Since(t0)
					folds = m.Updater().Recompiled()
				}
				b.ReportMetric(float64(spent.Microseconds())/1e3/float64(b.N*learns), "ms/learn")
				b.ReportMetric(float64(folds), "folds")
			})
		}
	}
}

// foldSink keeps BenchmarkFold's result live.
var foldSink []*bdd.Compiled

// BenchmarkFold times one fold of a pending overlay into a zone of
// zone_learn_mix's shape (400 patterns of width 40 at γ = 2): derive,
// expand and Or the overlay into every level, compile.
func BenchmarkFold(b *testing.B) {
	for _, pending := range []int{1, 4, overlayCap} {
		b.Run(fmt.Sprintf("pending%d", pending), func(b *testing.B) {
			r := rng.New(9)
			z, _ := buildZone(40, 2, randomPatterns(r, 400, 40)...).cloneWithDelta(randomPatterns(r, pending, 40), overlayCap)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				foldSink = z.folded()
			}
		})
	}
}
