package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"napmon/internal/bdd"
	"napmon/internal/nn"
	"napmon/internal/tensor"
)

// Config specifies how a monitor is built.
type Config struct {
	// Layer is the index (into the network's layer list) of the monitored
	// layer; its output must be the ReLU-activated vector whose on/off
	// pattern is abstracted. The paper monitors a close-to-output
	// fully-connected ReLU layer.
	Layer int
	// Gamma is the Hamming-distance enlargement of Definition 2.
	Gamma int
	// Classes lists the classes to monitor; nil monitors every class
	// (the paper's network 2 monitor covers only the stop-sign class).
	Classes []int
	// Neurons lists the monitored neuron indices within the layer output
	// (sorted ascending); nil monitors all neurons. Use SelectNeurons to
	// pick important neurons by gradient-based sensitivity analysis.
	Neurons []int
}

// Monitor is the neuron activation pattern monitor of Definition 3: one
// γ-comfort zone per monitored class, consulted after each classification
// decision.
//
// A monitor has two phases. While building (Algorithm 1) it is
// single-writer: Insert and SetGamma mutate the zones directly. Freeze
// publishes the zones as the first serving epoch; from then on every read
// path (Watch, WatchBatch, WatchPattern, Evaluate) pins the current epoch
// for the duration of its batch, and the zones only change by whole-epoch
// replacement through the Updater (Update/UpdateBatch/UpdateGamma) — see
// DESIGN.md, "Online updates: epochs, grace periods".
type Monitor struct {
	cfg     Config
	neurons []int // resolved monitored neuron indices (always non-nil)
	width   int   // layer output width d_l

	// zones is the build-phase state, owned by the building goroutine
	// until Freeze. After Freeze the source of truth is the current
	// epoch; zones keeps the freeze-time generation only so the
	// freezeOnce closure can hand it over.
	zones map[int]*Zone

	// cur is the serving epoch: nil until Freeze, then swapped atomically
	// by the updater. Readers go through acquire/unpin.
	cur atomic.Pointer[epoch]

	// upd serializes online updates and carries their counters.
	upd Updater

	// freezeOnce guards the build-to-serve transition: after Freeze (or
	// the first WatchBatch, which freezes implicitly) every zone is its
	// compiled plans and membership queries are safe from any number of
	// goroutines.
	freezeOnce sync.Once

	// bddDone: counters of every BDD manager a zone dropped (foldBDD).
	bddMu   sync.Mutex
	bddDone bdd.Stats

	// Serving-signal counters (see obs.go): per-class verdict tallies,
	// abstentions, and the inference/zone-query time split. wc's key set
	// mirrors zones and is immutable after construction.
	wc          map[int]*watchCounters
	unmonitored atomic.Uint64
	infNs       atomic.Int64
	zoneNs      atomic.Int64
}

// Verdict is the outcome of watching one input.
type Verdict struct {
	// Class is the network's classification decision dec_f(in).
	Class int
	// Monitored reports whether the predicted class has a comfort zone;
	// when false the monitor abstains and OutOfPattern is meaningless.
	Monitored bool
	// OutOfPattern is true when the input's activation pattern is not in
	// the predicted class's γ-comfort zone — the decision is not supported
	// by prior similarities in training.
	OutOfPattern bool
	// Pattern is the extracted activation pattern over monitored neurons.
	Pattern Pattern
	// Epoch identifies the serving epoch the verdict was computed against
	// (0 while the monitor is unfrozen). All verdicts of one batch carry
	// the same epoch: a batch never straddles an online update.
	Epoch uint64
}

// Build runs Algorithm 1: it feeds every training sample through the
// network, records the activation pattern of each correctly classified
// sample in its ground-truth class's zone, and enlarges every zone to the
// configured γ. The network is not modified. Both halves run on all
// cores: pattern extraction fans samples over a worker pool, and the
// zone phase fans classes over one — every class's zone lives in its own
// single-writer BDD manager, so per-class insertion and enlargement are
// independent (see shard.go). The result is deterministic regardless of
// worker count.
func Build(net *nn.Network, train []nn.Sample, cfg Config) (*Monitor, error) {
	m, err := newMonitor(net, cfg)
	if err != nil {
		return nil, err
	}
	results := extractObs(net, cfg.Layer, m.neurons, train)
	// Line 5 of Algorithm 1: only correctly predicted training images
	// contribute their pattern, to the zone of their true class. Grouping
	// preserves training order within each class, so the sharded build
	// constructs the same BDDs as the old sequential loop.
	perClass := make(map[int][]Pattern, len(m.zones))
	for i, r := range results {
		if r.pred != train[i].Label {
			continue
		}
		if _, ok := m.zones[train[i].Label]; !ok {
			continue // class not monitored
		}
		perClass[train[i].Label] = append(perClass[train[i].Label], r.pattern)
	}
	if err := m.buildZones(perClass, cfg.Gamma); err != nil {
		return nil, err
	}
	return m, nil
}

// BuildFromPatterns builds a monitor directly from per-class activation
// patterns — no network pass. This is the entry point for rebuilding a
// monitor from logged serving traffic (napmon-serve's /watch responses
// carry the pattern wire form) and the isolated harness for the sharded
// zone build: classes are fanned out over the worker pool exactly as in
// Build. All patterns must have length width; classes must be
// non-negative. The monitor serves pattern-level queries (WatchPattern,
// Evaluate-by-pattern, the online Update family); the network-coupled
// entry points (Watch, WatchBatch) need a monitor built by Build, which
// knows the monitored layer.
func BuildFromPatterns(width, gamma int, perClass map[int][]Pattern) (*Monitor, error) {
	if width <= 0 {
		return nil, fmt.Errorf("core: monitor width %d must be positive", width)
	}
	if gamma < 0 {
		return nil, fmt.Errorf("core: negative gamma %d", gamma)
	}
	if len(perClass) == 0 {
		return nil, fmt.Errorf("core: BuildFromPatterns needs at least one class")
	}
	zones := make(map[int]*Zone, len(perClass))
	for c, pats := range perClass {
		if c < 0 {
			return nil, fmt.Errorf("core: negative class %d", c)
		}
		for _, p := range pats {
			if len(p) != width {
				return nil, fmt.Errorf("core: class %d pattern width %d does not match monitor width %d",
					c, len(p), width)
			}
		}
		zones[c] = NewZone(width)
	}
	neurons := make([]int, width)
	for i := range neurons {
		neurons[i] = i
	}
	classes := make([]int, 0, len(perClass))
	for c := range perClass {
		classes = append(classes, c)
	}
	sort.Ints(classes)
	m := &Monitor{
		cfg:     Config{Layer: -1, Gamma: gamma, Classes: classes},
		neurons: neurons,
		width:   width,
		zones:   zones,
	}
	m.upd.m = m
	m.initWatchCounters()
	if err := m.buildZones(perClass, gamma); err != nil {
		return nil, err
	}
	return m, nil
}

// newMonitor validates cfg against the network and allocates empty zones.
func newMonitor(net *nn.Network, cfg Config) (*Monitor, error) {
	if cfg.Layer < 0 || cfg.Layer >= net.NumLayers() {
		return nil, fmt.Errorf("core: monitored layer %d out of range [0,%d)",
			cfg.Layer, net.NumLayers())
	}
	if cfg.Gamma < 0 {
		return nil, fmt.Errorf("core: negative gamma %d", cfg.Gamma)
	}
	numClasses, width, err := probeDims(net, cfg.Layer)
	if err != nil {
		return nil, err
	}
	neurons := cfg.Neurons
	if neurons == nil {
		neurons = make([]int, width)
		for i := range neurons {
			neurons[i] = i
		}
	} else {
		if len(neurons) == 0 {
			return nil, fmt.Errorf("core: empty monitored neuron list")
		}
		if !sort.IntsAreSorted(neurons) {
			return nil, fmt.Errorf("core: monitored neurons must be sorted ascending")
		}
		for i, n := range neurons {
			if n < 0 || n >= width {
				return nil, fmt.Errorf("core: neuron %d out of range [0,%d)", n, width)
			}
			if i > 0 && neurons[i-1] == n {
				return nil, fmt.Errorf("core: duplicate monitored neuron %d", n)
			}
		}
	}
	classes := cfg.Classes
	if classes == nil {
		classes = make([]int, numClasses)
		for i := range classes {
			classes[i] = i
		}
	}
	zones := make(map[int]*Zone, len(classes))
	for _, c := range classes {
		if c < 0 || c >= numClasses {
			return nil, fmt.Errorf("core: monitored class %d out of range [0,%d)", c, numClasses)
		}
		if _, dup := zones[c]; dup {
			return nil, fmt.Errorf("core: duplicate monitored class %d", c)
		}
		zones[c] = NewZone(len(neurons))
	}
	m := &Monitor{cfg: cfg, neurons: neurons, width: width, zones: zones}
	m.upd.m = m
	m.initWatchCounters()
	return m, nil
}

// probeDims determines the network's class count and the monitored layer's
// output width from the static shapes of its fully-connected layers: the
// final layer must be Dense (its row count is the class count) and the
// monitored layer must sit at or after a Dense layer (whose row count is
// the layer width). Convolutional layer outputs depend on the input size
// and are not supported as monitored layers, matching the paper's setup of
// monitoring close-to-output fully-connected layers.
func probeDims(net *nn.Network, layer int) (numClasses, width int, err error) {
	last, ok := net.Layer(net.NumLayers() - 1).(*nn.Dense)
	if !ok {
		return 0, 0, fmt.Errorf("core: network's final layer must be fully-connected")
	}
	numClasses = last.Weights().Dim(0)
	// The monitored layer is typically ReLU following a Dense layer; find
	// the nearest Dense at or before the monitored index to learn width.
	for i := layer; i >= 0; i-- {
		if d, ok := net.Layer(i).(*nn.Dense); ok {
			return numClasses, d.Weights().Dim(0), nil
		}
	}
	return 0, 0, fmt.Errorf("core: no fully-connected layer at or before monitored layer %d", layer)
}

// Config returns the configuration the monitor was built with.
func (m *Monitor) Config() Config { return m.cfg }

// Neurons returns the monitored neuron indices.
func (m *Monitor) Neurons() []int { return m.neurons }

// LayerWidth returns the monitored layer's full width d_l.
func (m *Monitor) LayerWidth() int { return m.width }

// zonesView returns the zone set a non-serving accessor should read: the
// current epoch's zones once frozen, the build-phase zones before.
// Accessors going through it (Zone, Classes) see the latest generation
// unpinned: safe, since a frozen zone is immutable and valid for as long
// as it is held, but a later call may see another epoch. Serving paths pin.
func (m *Monitor) zonesView() map[int]*Zone {
	if e := m.cur.Load(); e != nil {
		return e.zones
	}
	return m.zones
}

// Zone returns the comfort zone for class c at the current epoch, or nil
// when c is unmonitored. The returned handle belongs to the epoch current
// at call time: if online updates later replace class c's zone, the
// handle keeps answering from the generation it was taken from.
// Diagnostics that must follow updates should re-fetch the zone per use
// (or go through the pinned serving APIs — Watch, WatchPattern,
// WatchBatch, Evaluate, StorageNodes).
func (m *Monitor) Zone(c int) *Zone { return m.zonesView()[c] }

// Classes returns the monitored classes in ascending order.
func (m *Monitor) Classes() []int {
	zones := m.zonesView()
	cs := make([]int, 0, len(zones))
	for c := range zones {
		cs = append(cs, c)
	}
	sort.Ints(cs)
	return cs
}

// SetGamma changes the enlargement level of every zone (recomputed
// incrementally from cached levels), with the per-class enlargements
// fanned out over the worker pool — each zone's manager is independent,
// so the classes expand concurrently and deterministically. It is a
// build-phase operation: on a frozen monitor it returns an error instead
// of mutating shared serving state — publish the change as a new epoch
// with UpdateGamma instead.
func (m *Monitor) SetGamma(gamma int) error {
	if m.Frozen() {
		if e := m.cur.Load(); e != nil && e.gamma == gamma {
			return nil // no change requested; nothing to mutate
		}
		return fmt.Errorf("core: SetGamma(%d) on frozen monitor (use UpdateGamma to publish a new serving epoch)", gamma)
	}
	err := forEachClass(sortedClasses(m.zones), func(c int) error {
		return m.zones[c].SetGamma(gamma)
	})
	if err != nil {
		return err
	}
	m.cfg.Gamma = gamma
	return nil
}

// Gamma returns the current enlargement level: the serving epoch's γ once
// frozen (UpdateGamma may have moved it), the build configuration before.
func (m *Monitor) Gamma() int {
	if e := m.cur.Load(); e != nil {
		return e.gamma
	}
	return m.cfg.Gamma
}

// Freeze transitions the monitor from building to serving: every zone
// compiles its plans and drops its BDD manager, and the zone set is
// published as epoch 1,
// after which Watch, WatchPattern and WatchBatch are safe to call from any
// number of goroutines concurrently. Freeze is idempotent; WatchBatch
// calls it implicitly on first use. A frozen monitor mutates only by
// whole-epoch replacement: Update/UpdateBatch absorb new patterns and
// UpdateGamma re-levels the zones, each publishing a successor epoch
// without a serving gap; SetGamma and Insert fail.
func (m *Monitor) Freeze() { m.freezeAt(1) }

// freezeAt is Freeze with an explicit id for the first published epoch.
// A freshly built monitor starts at epoch 1; a monitor warm-started from
// a snapshot resumes at the snapshot's epoch id so replayed deltas keep
// publishing the same ids as the leader they came from (LoadSnapshot).
func (m *Monitor) freezeAt(id uint64) {
	m.freezeOnce.Do(func() {
		for _, z := range m.zones {
			m.foldBDD(z.Freeze())
		}
		m.cur.Store(newEpoch(id, m.cfg.Gamma, m.zones, &m.upd.released))
	})
}

// Frozen reports whether the monitor has been frozen for serving.
func (m *Monitor) Frozen() bool {
	if m.cur.Load() != nil {
		return true
	}
	for _, z := range m.zones {
		return z.Frozen()
	}
	return true // a monitor with no zones has nothing left to mutate
}

// Watch supplements one classification decision (Figure 1-(b)): it runs
// inference, extracts the activation pattern at the monitored layer, and
// checks it against the comfort zone of the predicted class.
func (m *Monitor) Watch(net *nn.Network, x *tensor.Tensor) Verdict {
	var pred int
	var p Pattern
	net.Observe([]nn.Sample{{Input: x}}, m.cfg.Layer, func(_, c int, acts []float64) {
		pred, p = c, PatternOfRow(acts, m.neurons)
	})
	zones, eid := m.zones, uint64(0)
	if e := m.acquire(); e != nil {
		defer e.unpin()
		zones, eid = e.zones, e.id
	}
	z, ok := zones[pred]
	if !ok {
		m.countVerdict(pred, false, false)
		return Verdict{Class: pred, Monitored: false, Pattern: p, Epoch: eid}
	}
	oop := !z.Contains(p)
	m.countVerdict(pred, true, oop)
	return Verdict{Class: pred, Monitored: true, OutOfPattern: oop, Pattern: p, Epoch: eid}
}

// scratchPools recycles tensor.Pool instances across WatchBatch calls so
// a hot serving loop reuses warm scratch buffers instead of reallocating
// a network's worth of intermediates per batch. Each pool is owned by
// exactly one goroutine between Get and Put.
var scratchPools = sync.Pool{New: func() any { return tensor.NewPool() }}

// groupScratch recycles the per-chunk class-grouping buffers of
// watchChunkPooled (row order, pattern views, batch results), keeping
// the serving warm path allocation-free. Each instance is owned by one
// goroutine between Get and Put.
type groupScratch struct {
	idx  []int
	pats [][]bool
	res  []bool
}

var groupScratches = sync.Pool{New: func() any { return &groupScratch{} }}

// maxWatchChunk bounds how many inputs one ForwardBatch pass stacks
// together (see nn.MaxChunk).
const maxWatchChunk = nn.MaxChunk

// watchSplit plans WatchBatch over n inputs on the given number of
// workers: every worker serves one contiguous run of per chunks of
// chunk inputs (the last run and chunk may be short), sized so that the
// chunks are as equal as maxWatchChunk allows and no worker runs more
// of them than another — 180 inputs on 2 workers are 2 × 2 chunks of
// 45, not 64/64/52 with a lone tail.
func watchSplit(n, workers int) (chunk, per int) {
	share := (n + workers - 1) / workers
	per = (share + maxWatchChunk - 1) / maxWatchChunk
	return (n + per*workers - 1) / (per * workers), per
}

// WatchBatch runs inference and the comfort-zone membership query for a
// batch of inputs and returns one Verdict per input, in input order. The
// batch is fed through Network.ForwardBatch in whole micro-batch chunks —
// dense layers collapse to one (B×in)×(in×out) GEMM, conv layers to one
// stripe-fused convolution — rather than fanning out per-input
// goroutines, with per-row activation-pattern extraction against the
// frozen BDD zones. On multi-core hosts the batch splits into equal
// per-worker runs of chunks (watchSplit) on top of the layers' own
// stripe split: the nesting keeps every core in a kernel while another
// chunk is between layers (DESIGN.md has the measurement that kept it).
// All scratch is pooled, so a warm serving loop allocates only the
// verdict slice. The monitor is frozen on first use (see Freeze);
// WatchBatch may be called concurrently from any number of goroutines
// because the batched forward path touches no per-layer state. The
// serving epoch is pinned once for the whole batch: every verdict
// carries the same Epoch even while online updates publish new
// generations concurrently.
func (m *Monitor) WatchBatch(net *nn.Network, inputs []*tensor.Tensor) []Verdict {
	if len(inputs) == 0 {
		// An empty batch has no serving work to do; in particular it must
		// not freeze a monitor that is still being built.
		return []Verdict{}
	}
	m.Freeze()
	e := m.acquire()
	defer e.unpin()
	out := make([]Verdict, len(inputs))
	chunk, per := watchSplit(len(inputs), runtime.GOMAXPROCS(0))
	// One worker per run, the first on the calling goroutine; each owns
	// one scratch pool, so memory is bounded by workers × one chunk's
	// scratch.
	serve := func(lo int) {
		pool := scratchPools.Get().(*tensor.Pool)
		for hi := min(lo+chunk*per, len(inputs)); lo < hi; lo += chunk {
			end := min(lo+chunk, hi)
			m.watchChunkPooled(net, inputs[lo:end], out[lo:end], pool, e, nil)
		}
		scratchPools.Put(pool)
	}
	var wg sync.WaitGroup
	for lo := chunk * per; lo < len(inputs); lo += chunk * per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			serve(lo)
		}()
	}
	serve(0)
	wg.Wait()
	return out
}

// WatchBatchPooled serves one whole batch through a single ForwardBatch
// pass on the calling goroutine, drawing every intermediate from the
// caller's scratch pool. This is the entry point for serving lanes that
// own a long-lived pool (internal/serve): the lane's buffers stay warm
// across micro-batches, and lane-level parallelism replaces WatchBatch's
// own worker split. Each call re-resolves and pins the serving epoch, so
// a lane picks up published online updates at micro-batch granularity and
// never mixes generations within one batch. The monitor is frozen on
// first use; pool must not be shared between concurrent callers. A nil
// pool uses a throwaway one.
func (m *Monitor) WatchBatchPooled(net *nn.Network, inputs []*tensor.Tensor, pool *tensor.Pool) []Verdict {
	return m.WatchBatchPooledTimed(net, inputs, pool, nil)
}

// WatchBatchPooledTimed is WatchBatchPooled with a per-call stage-time
// split: when t is non-nil, the chunk's inference and zone-query wall
// times are accumulated into it, letting a serving lane feed per-stage
// latency histograms without a second clock read of its own. The
// monitor-global time counters (InferenceNanos, ZoneQueryNanos) advance
// either way.
func (m *Monitor) WatchBatchPooledTimed(net *nn.Network, inputs []*tensor.Tensor, pool *tensor.Pool, t *BatchTiming) []Verdict {
	if len(inputs) == 0 {
		return []Verdict{}
	}
	m.Freeze()
	e := m.acquire()
	defer e.unpin()
	out := make([]Verdict, len(inputs))
	m.watchChunkPooled(net, inputs, out, pool, e, t)
	return out
}

// watchChunkPooled is the batched serving core: one ForwardBatchCapture
// pass over the chunk, per-row argmax and pattern extraction, then the
// zone membership queries grouped by predicted class — each class's
// compiled plan is consulted once per chunk (Zone.ContainsBatch →
// Compiled.EvalBatch), so the branch program stays hot in cache across
// all of the chunk's rows that hit it, against the caller's pinned epoch.
func (m *Monitor) watchChunkPooled(net *nn.Network, inputs []*tensor.Tensor, out []Verdict, pool *tensor.Pool, e *epoch, bt *BatchTiming) {
	tStart := time.Now()
	logits, acts := net.ForwardBatchCapture(inputs, m.cfg.Layer, pool)
	b := len(inputs)
	nc := logits.Len() / b
	width := acts.Len() / b
	ldata, adata := logits.Data(), acts.Data()
	for i := range inputs {
		row := ldata[i*nc : (i+1)*nc]
		pred := 0
		for j := 1; j < nc; j++ {
			if row[j] > row[pred] {
				pred = j
			}
		}
		p := PatternOfRow(adata[i*width:(i+1)*width], m.neurons)
		out[i] = Verdict{Class: pred, Pattern: p, Epoch: e.id}
	}
	if pool != nil {
		pool.Put(logits)
		if &acts.Data()[0] != &logits.Data()[0] {
			pool.Put(acts)
		}
	}
	tInfer := time.Now()
	// Group rows by predicted class: idx is row order stably sorted by
	// class (insertion sort — chunks are at most maxWatchChunk rows), so
	// each run of equal classes becomes one batched zone query.
	gs := groupScratches.Get().(*groupScratch)
	if cap(gs.idx) < b {
		gs.idx = make([]int, b)
		gs.res = make([]bool, b)
	}
	idx, res := gs.idx[:b], gs.res[:b]
	pats := gs.pats[:0]
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < b; i++ {
		j, c := i, idx[i]
		for j > 0 && out[idx[j-1]].Class > out[c].Class {
			idx[j] = idx[j-1]
			j--
		}
		idx[j] = c
	}
	for start := 0; start < b; {
		cls := out[idx[start]].Class
		end := start + 1
		for end < b && out[idx[end]].Class == cls {
			end++
		}
		z, ok := e.zones[cls]
		if !ok {
			m.unmonitored.Add(uint64(end - start))
			start = end // monitor abstains: Monitored stays false
			continue
		}
		pats = pats[:0]
		for j := start; j < end; j++ {
			pats = append(pats, out[idx[j]].Pattern)
		}
		z.ContainsBatch(pats, res[:end-start])
		oop := 0
		for j := start; j < end; j++ {
			out[idx[j]].Monitored = true
			if !res[j-start] {
				out[idx[j]].OutOfPattern = true
				oop++
			}
		}
		if wc := m.wc[cls]; wc != nil {
			wc.watched.Add(uint64(end - start))
			wc.oop.Add(uint64(oop))
		}
		start = end
	}
	zoneNs := time.Since(tInfer).Nanoseconds()
	infNs := tInfer.Sub(tStart).Nanoseconds()
	m.infNs.Add(infNs)
	m.zoneNs.Add(zoneNs)
	if bt != nil {
		bt.InferenceNs += infNs
		bt.ZoneQueryNs += zoneNs
	}
	// Drop the pattern references before pooling the scratch so a parked
	// buffer cannot pin a retired epoch's patterns. pats was re-sliced to
	// [:0] per class group, so clear the whole backing array, not just
	// the final group's window.
	clear(pats[:cap(pats)])
	gs.pats = pats[:0]
	groupScratches.Put(gs)
}

// WatchPattern checks a pre-extracted pattern against class c's zone at
// the current epoch. It reports (outOfPattern, monitored).
func (m *Monitor) WatchPattern(c int, p Pattern) (outOfPattern, monitored bool) {
	zones := m.zones
	if e := m.acquire(); e != nil {
		defer e.unpin()
		zones = e.zones
	}
	z, ok := zones[c]
	if !ok {
		m.countVerdict(c, false, false)
		return false, false
	}
	oop := !z.Contains(p)
	m.countVerdict(c, true, oop)
	return oop, true
}

// StorageNodes returns the total BDD node count across all zones at the
// current γ. On a frozen monitor the epoch is pinned for the whole walk,
// so polling it concurrently with online updates is safe.
func (m *Monitor) StorageNodes() int {
	zones := m.zones
	if e := m.acquire(); e != nil {
		defer e.unpin()
		zones = e.zones
	}
	total := 0
	for _, z := range zones {
		total += z.NodeCount()
	}
	return total
}
