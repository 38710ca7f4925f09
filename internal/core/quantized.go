package core

import (
	"fmt"
	"sort"

	"napmon/internal/nn"
	"napmon/internal/tensor"
)

// Quantized monitors generalize Definition 1 from on/off bits to K
// activation levels per neuron, bridging the paper's binary patterns and
// its proposed refined numerical domains (§V): each monitored neuron's
// value is bucketed against per-neuron thresholds learned from the
// training distribution, and the bucket index is thermometer-encoded
// (level L sets the L lowest of K-1 bits). Thermometer codes make the
// BDD Hamming enlargement meaningful — distance 1 corresponds exactly to
// one neuron moving one level — so Algorithm 1's Hamming enlargement
// (bdd.ExpandHamming) is reused unchanged, just over more variables.

// QuantizedConfig specifies a quantized monitor.
type QuantizedConfig struct {
	// Layer, Classes, Neurons and Gamma have the same meaning as in
	// Config.
	Layer   int
	Classes []int
	Neurons []int
	Gamma   int
	// Levels is the number of activation buckets per neuron (>= 2);
	// Levels = 2 with threshold 0 degenerates to the paper's binary
	// pattern.
	Levels int
}

// QuantizedMonitor is a multi-level activation pattern monitor.
type QuantizedMonitor struct {
	cfg     QuantizedConfig
	neurons []int
	// thresholds[i] holds the Levels-1 ascending bucket boundaries for
	// monitored neuron i.
	thresholds [][]float64
	zones      map[int]*Zone // over (Levels-1) * len(neurons) BDD variables
}

// BuildQuantized learns per-neuron thresholds from the training
// activations (uniform quantiles, with the ReLU boundary 0 always the
// first threshold) and then runs Algorithm 1 over thermometer-encoded
// level patterns.
func BuildQuantized(net *nn.Network, train []nn.Sample, cfg QuantizedConfig) (*QuantizedMonitor, error) {
	if cfg.Levels < 2 {
		return nil, fmt.Errorf("core: quantization needs at least 2 levels, got %d", cfg.Levels)
	}
	base, classes, err := newMonitor(net, Config{
		Layer:   cfg.Layer,
		Gamma:   cfg.Gamma,
		Classes: cfg.Classes,
		Neurons: cfg.Neurons,
	})
	if err != nil {
		return nil, err
	}
	if len(train) == 0 {
		return nil, fmt.Errorf("core: quantized monitor needs training samples")
	}
	m := &QuantizedMonitor{cfg: cfg, neurons: base.neurons}

	// Pass 1: capture activations for thresholds and patterns.
	results := extractValues(net, cfg.Layer, m.neurons, train)

	// Learn thresholds per neuron: 0 first (the ReLU activation
	// boundary), then uniform quantiles of the positive activations.
	m.thresholds = make([][]float64, len(m.neurons))
	for i := range m.neurons {
		var positives []float64
		for _, r := range results {
			if v := r.values[i]; v > 0 {
				positives = append(positives, v)
			}
		}
		sort.Float64s(positives)
		ts := make([]float64, 0, cfg.Levels-1)
		ts = append(ts, 0)
		for j := 1; j < cfg.Levels-1; j++ {
			var q float64
			if len(positives) == 0 {
				q = float64(j) // arbitrary ascending fallback
			} else {
				q = positives[(len(positives)-1)*j/(cfg.Levels-1)]
			}
			// Enforce strict ascent so buckets are well-defined.
			if last := ts[len(ts)-1]; q <= last {
				q = last + 1e-9
			}
			ts = append(ts, q)
		}
		m.thresholds[i] = ts
	}

	// Pass 2: Algorithm 1 over thermometer-encoded patterns, with the
	// per-class insertion and enlargement sharded over the worker pool —
	// the thermometer zones are per-class managers exactly like the
	// binary monitor's, so the same fan-out applies (see shard.go).
	perClass := make(map[int][]Pattern, len(classes))
	for _, c := range classes {
		perClass[c] = nil
	}
	for i, r := range results {
		label := train[i].Label
		if pats, ok := perClass[label]; ok && r.pred == label {
			perClass[label] = append(pats, m.encode(r.values))
		}
	}
	if m.zones, _, err = buildZones(perClass, (cfg.Levels-1)*len(m.neurons), cfg.Gamma); err != nil {
		return nil, err
	}
	return m, nil
}

// level returns the bucket index of value v for monitored neuron i:
// the number of thresholds it exceeds, in 0..Levels-1.
func (m *QuantizedMonitor) level(i int, v float64) int {
	lvl := 0
	for _, t := range m.thresholds[i] {
		if v > t {
			lvl++
		}
	}
	return lvl
}

// encode thermometer-encodes the monitored values into a pattern of
// (Levels-1)*len(neurons) bits.
func (m *QuantizedMonitor) encode(values []float64) Pattern {
	bitsPer := m.cfg.Levels - 1
	p := make(Pattern, bitsPer*len(values))
	for i, v := range values {
		lvl := m.level(i, v)
		for b := 0; b < lvl; b++ {
			p[i*bitsPer+b] = true
		}
	}
	return p
}

// Thresholds returns the learned bucket boundaries of monitored neuron i.
func (m *QuantizedMonitor) Thresholds(i int) []float64 { return m.thresholds[i] }

// Neurons returns the monitored neuron indices.
func (m *QuantizedMonitor) Neurons() []int { return m.neurons }

// Zone returns class c's zone (over thermometer bits), or nil.
func (m *QuantizedMonitor) Zone(c int) *Zone { return m.zones[c] }

// Watch classifies x and checks its quantized pattern against the
// predicted class's zone.
func (m *QuantizedMonitor) Watch(net *nn.Network, x *tensor.Tensor) Verdict {
	o := extractValues(net, m.cfg.Layer, m.neurons, []nn.Sample{{Input: x}})[0]
	pred, p := o.pred, m.encode(o.values)
	z, ok := m.zones[pred]
	if !ok {
		return Verdict{Class: pred, Monitored: false, Pattern: p}
	}
	return Verdict{Class: pred, Monitored: true, OutOfPattern: !z.Contains(p), Pattern: p}
}

// extractQuantizedObs runs batched inference and thermometer-encodes each
// sample's monitored values, yielding the same observation form the
// shared tallyMetrics consumes.
func extractQuantizedObs(net *nn.Network, m *QuantizedMonitor, samples []nn.Sample) []obs {
	out := make([]obs, len(samples))
	for i, o := range extractValues(net, m.cfg.Layer, m.neurons, samples) {
		out[i] = obs{pred: o.pred, pattern: m.encode(o.values)}
	}
	return out
}

// EvaluateQuantizedAt aggregates Table II-style statistics for a
// quantized monitor at an explicit enlargement level, 0..cfg.Gamma (the
// levels the zones were built with). Like EvaluateAt it reports a deeper
// level as an error, so daemons probing γ on a serving quantized monitor
// cannot be crashed by a too-deep query.
func EvaluateQuantizedAt(net *nn.Network, m *QuantizedMonitor, samples []nn.Sample, gamma int) (Metrics, error) {
	if gamma < 0 {
		return Metrics{}, fmt.Errorf("core: negative gamma %d", gamma)
	}
	return tallyMetrics(extractQuantizedObs(net, m, samples), samples, m.zones,
		func(z *Zone, p Pattern) (bool, error) { return z.ContainsAtErr(gamma, p) })
}

// EvaluateQuantized aggregates Table II-style statistics for a quantized
// monitor.
func EvaluateQuantized(net *nn.Network, m *QuantizedMonitor, samples []nn.Sample) Metrics {
	out, _ := tallyMetrics(extractQuantizedObs(net, m, samples), samples, m.zones,
		func(z *Zone, p Pattern) (bool, error) { return z.Contains(p), nil })
	return out
}
