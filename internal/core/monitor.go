package core

import (
	"fmt"
	"runtime"
	"slices"
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
// A monitor is born serving: Build (Algorithm 1) ends by publishing the
// finished zones as epoch 1, and every read path (Watch, WatchBatch,
// WatchPattern, Evaluate) loads the current epoch once for its whole
// batch. The zones only change by whole-epoch replacement through
// Update/UpdateBatch/UpdateGamma — see DESIGN.md, "Online updates: epochs,
// grace periods".
type Monitor struct {
	cfg     Config
	neurons []int // resolved monitored neuron indices (always non-nil)
	width   int   // layer output width d_l

	// cur is the serving epoch, published at construction and swapped
	// atomically by updates. A reader loads it once per batch.
	cur atomic.Pointer[epoch]

	// updMu serializes online updates; upd carries their counters.
	updMu sync.Mutex
	upd   Updater

	// bddDone: counters of every finished zone build session (foldBDD).
	bddMu   sync.Mutex
	bddDone bdd.Stats

	// Serving-signal counters (see obs.go): per-class verdict tallies,
	// abstentions, and the inference/zone-query time split. wc's key set
	// is the monitored classes and is immutable after construction.
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
	// Epoch identifies the serving epoch the verdict was computed against.
	// All verdicts of one batch carry the same epoch: a batch never
	// straddles an online update.
	Epoch uint64
}

// Build runs Algorithm 1: it feeds every training sample through the
// network, records the activation pattern of each correctly classified
// sample in its ground-truth class's zone, enlarges every zone to the
// configured γ, and publishes the finished zones as serving epoch 1. The
// network is not modified. Both halves run on all cores: pattern
// extraction fans samples over a worker pool, and the zone phase fans
// classes over one — every class's zone is built by its own single-writer
// BDD manager, so per-class insertion and enlargement are independent
// (see shard.go). The result is deterministic regardless of worker count.
func Build(net *nn.Network, train []nn.Sample, cfg Config) (*Monitor, error) {
	m, classes, err := newMonitor(net, cfg)
	if err != nil {
		return nil, err
	}
	results := extractObs(net, cfg.Layer, m.neurons, train)
	// Line 5 of Algorithm 1: only correctly predicted training images
	// contribute their pattern, to the zone of their true class. Grouping
	// preserves training order within each class, so the sharded build
	// constructs the same BDDs as a sequential loop.
	perClass := make(map[int][]Pattern, len(classes))
	for _, c := range classes {
		perClass[c] = nil
	}
	for i, r := range results {
		label := train[i].Label
		if pats, ok := perClass[label]; ok && r.pred == label {
			perClass[label] = append(pats, r.pattern)
		}
	}
	if err := m.build(perClass); err != nil {
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
	classes := make([]int, 0, len(perClass))
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
		classes = append(classes, c)
	}
	neurons := make([]int, width)
	for i := range neurons {
		neurons[i] = i
	}
	sort.Ints(classes)
	m := &Monitor{
		cfg:     Config{Layer: -1, Gamma: gamma, Classes: classes},
		neurons: neurons,
		width:   width,
	}
	if err := m.build(perClass); err != nil {
		return nil, err
	}
	return m, nil
}

// build runs Algorithm 1's zone phase over perClass (one zone per key, at
// the configured γ) and publishes the zones as epoch 1.
func (m *Monitor) build(perClass map[int][]Pattern) error {
	zones, session, err := buildZones(perClass, len(m.neurons), m.cfg.Gamma)
	if err != nil {
		return err
	}
	m.foldBDD(session)
	m.serve(1, m.cfg.Gamma, zones)
	return nil
}

// serve publishes the monitor's first epoch: id 1 for a fresh build, the
// file's id for a monitor loaded from a snapshot, so replayed deltas keep
// publishing the same ids as the leader they came from (LoadSnapshot).
func (m *Monitor) serve(id uint64, gamma int, zones map[int]*Zone) {
	m.initWatchCounters(zones)
	m.cur.Store(&epoch{id: id, gamma: gamma, zones: zones})
}

// newMonitor validates cfg against the network and resolves the monitored
// neurons and classes (ascending); the caller builds the zones.
func newMonitor(net *nn.Network, cfg Config) (*Monitor, []int, error) {
	if cfg.Layer < 0 || cfg.Layer >= net.NumLayers() {
		return nil, nil, fmt.Errorf("core: monitored layer %d out of range [0,%d)",
			cfg.Layer, net.NumLayers())
	}
	if cfg.Gamma < 0 {
		return nil, nil, fmt.Errorf("core: negative gamma %d", cfg.Gamma)
	}
	numClasses, width, err := probeDims(net, cfg.Layer)
	if err != nil {
		return nil, nil, err
	}
	neurons := cfg.Neurons
	if neurons == nil {
		neurons = make([]int, width)
		for i := range neurons {
			neurons[i] = i
		}
	} else {
		if len(neurons) == 0 {
			return nil, nil, fmt.Errorf("core: empty monitored neuron list")
		}
		if !sort.IntsAreSorted(neurons) {
			return nil, nil, fmt.Errorf("core: monitored neurons must be sorted ascending")
		}
		for i, n := range neurons {
			if n < 0 || n >= width {
				return nil, nil, fmt.Errorf("core: neuron %d out of range [0,%d)", n, width)
			}
			if i > 0 && neurons[i-1] == n {
				return nil, nil, fmt.Errorf("core: duplicate monitored neuron %d", n)
			}
		}
	}
	classes := slices.Clone(cfg.Classes)
	if classes == nil {
		classes = make([]int, numClasses)
		for i := range classes {
			classes[i] = i
		}
	}
	sort.Ints(classes)
	for i, c := range classes {
		if c < 0 || c >= numClasses {
			return nil, nil, fmt.Errorf("core: monitored class %d out of range [0,%d)", c, numClasses)
		}
		if i > 0 && classes[i-1] == c {
			return nil, nil, fmt.Errorf("core: duplicate monitored class %d", c)
		}
	}
	return &Monitor{cfg: cfg, neurons: neurons, width: width}, classes, nil
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

// Zone returns the comfort zone for class c at the current epoch, or nil
// when c is unmonitored. The returned handle belongs to the epoch current
// at call time: if online updates later replace class c's zone, the
// handle keeps answering from the generation it was taken from.
// Diagnostics that must follow updates should re-fetch the zone per use
// (or go through the one-epoch serving APIs — Watch, WatchPattern,
// WatchBatch, Evaluate, StorageNodes).
func (m *Monitor) Zone(c int) *Zone { return m.cur.Load().zones[c] }

// Classes returns the monitored classes in ascending order.
func (m *Monitor) Classes() []int {
	zones := m.cur.Load().zones
	cs := make([]int, 0, len(zones))
	for c := range zones {
		cs = append(cs, c)
	}
	sort.Ints(cs)
	return cs
}

// Gamma returns the serving epoch's enlargement level (UpdateGamma may
// have moved it from the build configuration).
func (m *Monitor) Gamma() int { return m.cur.Load().gamma }

// Freeze is a no-op kept for source compatibility: a monitor is frozen
// and serving epoch 1 from the moment Build, BuildFromPatterns or
// LoadSnapshot returns it.
func (m *Monitor) Freeze() {}

// Watch supplements one classification decision (Figure 1-(b)): it runs
// inference, extracts the activation pattern at the monitored layer, and
// checks it against the comfort zone of the predicted class.
func (m *Monitor) Watch(net *nn.Network, x *tensor.Tensor) Verdict {
	var pred int
	var p Pattern
	net.Observe([]nn.Sample{{Input: x}}, m.cfg.Layer, func(_, c int, acts []float64) {
		pred, p = c, PatternOfRow(acts, m.neurons)
	})
	e := m.cur.Load()
	z, ok := e.zones[pred]
	if !ok {
		m.countVerdict(pred, false, false)
		return Verdict{Class: pred, Monitored: false, Pattern: p, Epoch: e.id}
	}
	oop := !z.Contains(p)
	m.countVerdict(pred, true, oop)
	return Verdict{Class: pred, Monitored: true, OutOfPattern: oop, Pattern: p, Epoch: e.id}
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
// zones' compiled plans. On multi-core hosts the batch splits into equal
// per-worker runs of chunks (watchSplit) on top of the layers' own
// stripe split: the nesting keeps every core in a kernel while another
// chunk is between layers (DESIGN.md has the measurement that kept it).
// All scratch is pooled, so a warm serving loop allocates only the
// verdict slice. WatchBatch may be called concurrently from any number
// of goroutines because the batched forward path touches no per-layer
// state and the zones are immutable. The
// serving epoch is loaded once for the whole batch: every verdict
// carries the same Epoch even while online updates publish new
// generations concurrently.
func (m *Monitor) WatchBatch(net *nn.Network, inputs []*tensor.Tensor) []Verdict {
	if len(inputs) == 0 {
		return []Verdict{} // no serving work, and watchSplit needs n > 0
	}
	e := m.cur.Load()
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

// WatchBatchPooledTimed serves one whole batch through a single
// ForwardBatch pass on the calling goroutine, drawing every intermediate
// from the caller's scratch pool. This is the entry point for serving
// lanes that own a long-lived pool (internal/serve): the lane's buffers
// stay warm across micro-batches, and lane-level parallelism replaces
// WatchBatch's own worker split. Each call loads the serving epoch
// afresh, so a lane picks up published online updates at micro-batch
// granularity and never mixes generations within one batch. pool must
// not be shared between concurrent callers; a nil pool uses a throwaway
// one.
//
// When t is non-nil, the chunk's inference and zone-query wall times
// are accumulated into it, letting a serving lane feed per-stage
// latency histograms without a second clock read of its own. The
// monitor-global time counters (InferenceNanos, ZoneQueryNanos) advance
// either way.
func (m *Monitor) WatchBatchPooledTimed(net *nn.Network, inputs []*tensor.Tensor, pool *tensor.Pool, t *BatchTiming) []Verdict {
	if len(inputs) == 0 {
		return []Verdict{}
	}
	e := m.cur.Load()
	out := make([]Verdict, len(inputs))
	m.watchChunkPooled(net, inputs, out, pool, e, t)
	return out
}

// watchChunkPooled is the batched serving core: one ForwardBatchCapture
// pass over the chunk, per-row argmax and pattern extraction, then the
// zone membership queries grouped by predicted class — each class's
// compiled plan is consulted once per chunk (Zone.ContainsBatch →
// Compiled.EvalBatch), so the branch program stays hot in cache across
// all of the chunk's rows that hit it, against the caller's epoch.
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
	e := m.cur.Load()
	z, ok := e.zones[c]
	if !ok {
		m.countVerdict(c, false, false)
		return false, false
	}
	oop := !z.Contains(p)
	m.countVerdict(c, true, oop)
	return oop, true
}

// StorageNodes returns the total plan branch count across all zones at
// the serving γ, the overlays left out. The epoch is loaded once for the
// whole walk, so polling it concurrently with online updates is safe.
func (m *Monitor) StorageNodes() int {
	e := m.cur.Load()
	total := 0
	for _, z := range e.zones {
		total += z.NodeCount()
	}
	return total
}
