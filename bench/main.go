// Command bench is napmon's end-to-end benchmark: five named workloads
// that drive tensor, nn, bdd, core, serve, registry and wire through
// their public functions from one process, check every output against a
// reference, and report end-to-end metrics (untraced) and per-layer
// metrics (a traced run). See README.md for every metric and workload.
//
// The driver's form runs one workload and ends with one JSON line:
//
//	go run ./bench --workload stream_open --seed 7 --seconds 10 --trace 0
//
// Without --workload it runs all five, untraced then traced, and prints
// every metric by name; -repeat N repeats the untraced set on N seeds
// and fails if any metric's spread exceeds its bound in BENCHMARK.json.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"napmon/internal/core"
)

const (
	setupRuns = 5           // setup_s is the median of this many set-ups
	traceDir  = "bench/out" // relative to the checkout root the command runs from
	specFile  = "BENCHMARK.json"
)

// Shares of --seconds the untraced phases take, and the share each of
// the two replays of a traced run takes; the probes that follow the
// replays are sized from --seconds on their own (see runProbes).
const (
	lightShare  = 0.25
	loadedShare = 0.60
	bootShare   = 0.10
	replayShare = 0.30
)

// outcome is what one run of one workload reports.
type outcome struct {
	attempted, failed int
	m                 metrics
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// describe prints one timing the way the guide asks: the median, the
// highest percentile with at least ten samples beyond it, and the count.
func describe(out io.Writer, name string, samples []float64, unit string) float64 {
	asc := sorted(samples)
	p50 := percentile(asc, 50)
	tp, tail := tailPercentile(asc)
	fmt.Fprintf(out, "  %-16s p50=%.6g %s  p%g=%.6g %s  n=%d\n", name, p50, unit, tp, tail, unit, len(asc))
	return p50
}

// setUpTimed tears down what is up and times one setUp.
func setUpTimed(w workload) (float64, error) {
	w.tearDown()
	t0 := time.Now()
	err := w.setUp()
	return time.Since(t0).Seconds(), err
}

// prepare generates the inputs, prints their hash and sets up n times.
func prepare(info workloadInfo, seed uint64, n int, out io.Writer) (workload, []float64, error) {
	w := info.make()
	h := sha256.New()
	t0 := time.Now()
	if err := w.generate(seed, h); err != nil {
		return w, nil, fmt.Errorf("generate: %w", err)
	}
	fmt.Fprintf(out, "workload %s seed %d inputs_sha256=%x (generated in %.2fs)\n", info.name, seed, h.Sum(nil), time.Since(t0).Seconds())
	var setups []float64
	for i := 0; i < n; i++ {
		s, err := setUpTimed(w)
		if err != nil {
			return w, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, s)
	}
	if err := w.reference(); err != nil {
		return w, nil, fmt.Errorf("reference: %w", err)
	}
	return w, setups, nil
}

// measure is the untraced run: every end-to-end metric of one workload.
func measure(info workloadInfo, seed uint64, secs float64, out io.Writer) (outcome, error) {
	res := outcome{m: metrics{}}
	w, setups, err := prepare(info, seed, setupRuns, out)
	defer w.tearDown()
	if err != nil {
		return res, err
	}
	res.m.set("setup_s", describe(out, "setup_s", setups, "s"), "s")

	light, err := w.light(seconds(secs * lightShare))
	if err != nil {
		return res, fmt.Errorf("light phase: %w", err)
	}
	res.m.set("p50_ms_light", describe(out, "p50_ms_light", light.lat, "ms"), "ms")
	if len(light.late) > 0 {
		describe(out, "  generator late", light.late, "ms")
	}

	loaded, err := w.loaded(seconds(secs*loadedShare), nil)
	if err != nil {
		return res, fmt.Errorf("loaded phase: %w", err)
	}
	res.m.set("p50_ms_loaded", describe(out, "p50_ms_loaded", loaded.lat, "ms"), "ms")
	if len(loaded.late) > 0 {
		describe(out, "  generator late", loaded.late, "ms")
	}
	rates := sorted(loaded.rates)
	res.m.set("verdicts_per_s", median(rates), "1/s")
	fmt.Fprintf(out, "  %-16s median=%.6g 1/s  min=%.6g max=%.6g  sub-windows in order: %.5g\n", "verdicts_per_s", median(rates), rates[0], rates[len(rates)-1], loaded.rates)

	// The servers stop here. Bootstraps and live heap are read without
	// them: a live lane's scratch pool keeps one buffer set per batch size
	// the coalescer happened to form, so with the servers up the heap —
	// and through the collector's pacing the bootstrap time — would
	// follow scheduling, not the code.
	w.tearDown()
	res.attempted, res.failed = light.attempted+loaded.attempted, light.failed+loaded.failed
	boot, err := bootstrap(w, seconds(secs*bootShare))
	if err != nil {
		return res, fmt.Errorf("bootstrap: %w", err)
	}
	describe(out, "bootstrap_ms", boot.lat, "ms") // printed, not a bounded metric: see README
	res.attempted, res.failed = res.attempted+boot.attempted, res.failed+boot.failed
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	runtime.KeepAlive(w)
	res.m.set("live_heap_mb", float64(mem.HeapAlloc)/1e6, "MB")
	fmt.Fprintf(out, "  %-16s %.3f MB   attempted=%d failed=%d failed_share=%g\n", "live_heap_mb",
		float64(mem.HeapAlloc)/1e6, res.attempted, res.failed, float64(res.failed)/float64(max(res.attempted, 1)))
	return res, nil
}

// bootstrap is a follower's warm start, repeated for d (at least three
// times): Monitor.Snapshot, then core.LoadSnapshot. The last follower
// must then agree with the leader on every reference query.
func bootstrap(w workload, d time.Duration) (phase, error) {
	var res phase
	var buf bytes.Buffer
	var follower *core.Monitor
	leader := w.monitor()
	for start := time.Now(); time.Since(start) < d || len(res.lat) < 3; {
		// Each cycle starts on a collected heap: a decode allocates a whole
		// monitor, and whether a collection lands inside the timed stretch
		// would otherwise decide half of the samples.
		runtime.GC()
		t0 := time.Now()
		buf.Reset()
		if err := leader.Snapshot(&buf, nil); err != nil {
			return res, err
		}
		var err error
		if follower, _, err = core.LoadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
			return res, err
		}
		res.lat = append(res.lat, ms(time.Since(t0)))
	}
	classes, pats := w.queries()
	for i, p := range pats {
		lo, lm := leader.WatchPattern(classes[i], p)
		fo, fm := follower.WatchPattern(classes[i], p)
		if lo != fo || lm != fm {
			res.failed++
		}
	}
	res.attempted = len(pats)
	return res, nil
}

// replay is the workload's half of a traced run: its loaded phase on a
// fresh set-up without spans, then again with them. It reports the
// tracing overhead, writes the trace and prints the span budget; nsPer
// is the untraced wall time per verdict, for the peel's residual.
func replay(info workloadInfo, seed uint64, secs float64, out io.Writer) (res outcome, nsPer float64, err error) {
	res.m = metrics{}
	w, _, err := prepare(info, seed, 1, out)
	defer w.tearDown()
	if err != nil {
		return res, 0, err
	}
	plain, err := w.loaded(seconds(secs*replayShare), nil)
	if err != nil {
		return res, 0, fmt.Errorf("untraced replay: %w", err)
	}
	if _, err = setUpTimed(w); err != nil { // the traced replay must not inherit state
		return res, 0, fmt.Errorf("set-up: %w", err)
	}
	tr := newTracer()
	traced, err := w.loaded(seconds(secs*replayShare), tr)
	if err != nil {
		return res, 0, fmt.Errorf("traced replay: %w", err)
	}
	spans := tr.all()
	path, err := tr.write(traceDir, info.name, seed, spans)
	if err != nil {
		return res, 0, fmt.Errorf("writing trace: %w", err)
	}
	printBudget(out, info.name, selfTimes(spans))
	base, with := median(plain.rates), median(traced.rates)
	res.m.set("trace_overhead_pct", 100*(base-with)/base, "%")
	fmt.Fprintf(out, "  traced %.6g vs untraced %.6g verdicts/s: trace_overhead_pct=%.2f; %d spans (%d over the cap) in %s\n",
		with, base, 100*(base-with)/base, len(spans), tr.dropped.Load(), path)
	res.attempted, res.failed = plain.attempted+traced.attempted, plain.failed+traced.failed
	return res, 1e9 / base, nil
}

// residual is the share of a workload's wall time per verdict that the
// peel entry matching its own entry into the product does not explain:
// the benchmark's client and checks, and run-to-run difference.
func residual(out io.Writer, info workloadInfo, nsPer float64, rungs map[string]float64) float64 {
	pct := 100 * (nsPer - rungs[info.rung]) / nsPer
	fmt.Fprintf(out, "peel residual %s: %.3f us per verdict measured, %.3f us at %s, unexplained %.1f%%\n",
		info.name, nsPer/1e3, rungs[info.rung]/1e3, info.rung, pct)
	return pct
}

func printMetrics(out io.Writer, title string, m metrics) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintln(out, title)
	for _, n := range names {
		fmt.Fprintf(out, "  %-28s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

func printEnv(out io.Writer) {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	fmt.Fprintf(out, "env nproc=%d GOMAXPROCS=%d go=%s os/arch=%s/%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, cpu)
}

// runOne is the driver's form: one workload, one JSON line last.
func runOne(info workloadInfo, seed uint64, secs float64, trace bool, out io.Writer) error {
	var res outcome
	var err error
	if trace {
		var nsPer float64
		if res, nsPer, err = replay(info, seed, secs, out); err != nil {
			return err
		}
		p, err := runProbes(seed, secs, out)
		if err != nil {
			return fmt.Errorf("probes: %w", err)
		}
		for n, v := range p.m {
			res.m[n] = v
		}
		res.m.set("peel.residual_pct", residual(out, info, nsPer, p.rungs), "%")
		res.attempted, res.failed = res.attempted+p.attempted, res.failed+p.failed
	} else if res, err = measure(info, seed, secs, out); err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, res.m})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	if res.failed > 0 {
		return fmt.Errorf("%s: %d of %d outputs failed", info.name, res.failed, res.attempted)
	}
	return nil
}

// runAll runs every workload untraced, then traced, then the probes once.
func runAll(seed uint64, secs float64, out io.Writer) error {
	var failed []string
	nsPer := map[string]float64{}
	overhead := metrics{}
	for _, info := range workloads {
		res, err := measure(info, seed, secs, out)
		if err != nil {
			return fmt.Errorf("%s: %w", info.name, err)
		}
		printMetrics(out, "end-to-end "+info.name, res.m)
		tres, ns, err := replay(info, seed, secs, out)
		if err != nil {
			return fmt.Errorf("%s: %w", info.name, err)
		}
		nsPer[info.name] = ns
		overhead.set("trace_overhead_pct."+info.name, tres.m["trace_overhead_pct"].Value, "%")
		if res.failed+tres.failed > 0 {
			failed = append(failed, info.name)
		}
	}
	p, err := runProbes(seed, secs, out)
	if err != nil {
		return fmt.Errorf("probes: %w", err)
	}
	printMetrics(out, "per-layer", p.m)
	printMetrics(out, "tracing", overhead)
	for _, info := range workloads {
		residual(out, info, nsPer[info.name], p.rungs)
	}
	if p.failed > 0 {
		failed = append(failed, "the probes")
	}
	if len(failed) > 0 {
		return fmt.Errorf("failed_share above zero on %s", strings.Join(failed, ", "))
	}
	return nil
}

// selfCheck runs the untraced set on n consecutive seeds in this process
// and compares each end-to-end metric's spread, workload by workload,
// with its bound in BENCHMARK.json.
func selfCheck(seed uint64, secs float64, n int, out io.Writer) error {
	data, err := os.ReadFile(specFile)
	if err != nil {
		return err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", specFile, err)
	}
	over := 0
	for _, info := range workloads {
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			res, err := measure(info, seed+uint64(i), secs, io.Discard)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", info.name, seed+uint64(i), err)
			}
			if res.failed > 0 {
				return fmt.Errorf("%s seed %d: %d of %d outputs failed", info.name, seed+uint64(i), res.failed, res.attempted)
			}
			for name, v := range res.m {
				values[name] = append(values[name], v.Value)
			}
		}
		for _, e := range spec.EndToEnd {
			spread, verdict := quartileSpread(values[e.Name]), "ok"
			if spread > e.Bound && e.Name != "setup_s" { // the driver exempts set-up time's spread too
				verdict = "OVER"
				over++
			}
			fmt.Fprintf(out, "%-15s %-15s median=%-12.6g spread=%.4f bound=%.2f %s\n", info.name, e.Name, median(values[e.Name]), spread, e.Bound, verdict)
		}
	}
	if over > 0 {
		return fmt.Errorf("%d metric spreads exceed their bounds", over)
	}
	return nil
}

func main() {
	name := flag.String("workload", "", "run this one workload and end with the driver's JSON line (default: all five)")
	seed := flag.Uint64("seed", 1, "seed of every generated input")
	secs := flag.Float64("seconds", 10, "measuring time of one run")
	trace := flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	repeat := flag.Int("repeat", 0, "run the untraced set on this many seeds and check each spread against BENCHMARK.json")
	flag.Parse()
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	out := os.Stdout
	printEnv(out)

	err := errors.New("unknown workload " + *name)
	switch {
	case *repeat > 0:
		err = selfCheck(*seed, *secs, *repeat, out)
	case *name == "":
		err = runAll(*seed, *secs, out)
	default:
		for _, info := range workloads {
			if info.name == *name {
				err = runOne(info, *seed, *secs, *trace == 1, out)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
