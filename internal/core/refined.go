package core

import (
	"fmt"

	"napmon/internal/absdom"
	"napmon/internal/nn"
	"napmon/internal/tensor"
)

// Refined monitors implement the paper's §V extension 2: instead of
// abstracting each neuron to a single on/off bit, they keep numerical
// abstractions of the visited activation *values* — interval boxes or
// difference bound matrices (Miné 2001) — "to better capture an abstract
// representation of the visited activation patterns". The ε tolerance is
// the numerical analogue of the Hamming-γ enlargement.

// RefinedDomain selects the numerical abstract domain.
type RefinedDomain int

// The supported refined domains.
const (
	// DomainBox tracks an interval per monitored neuron.
	DomainBox RefinedDomain = iota
	// DomainDBM additionally tracks pairwise difference bounds between
	// monitored neurons (strictly more precise than DomainBox).
	DomainDBM
)

func (d RefinedDomain) String() string {
	switch d {
	case DomainBox:
		return "box"
	case DomainDBM:
		return "dbm"
	default:
		return fmt.Sprintf("RefinedDomain(%d)", int(d))
	}
}

// RefinedConfig specifies a refined monitor.
type RefinedConfig struct {
	// Layer, Classes and Neurons have the same meaning as in Config.
	Layer   int
	Classes []int
	Neurons []int
	// Domain selects boxes or DBMs.
	Domain RefinedDomain
	// Epsilon enlarges every bound at query time (the coarseness dial).
	Epsilon float64
	// PerPattern refines each visited on/off pattern with its own
	// abstract element; when false one element covers the whole class.
	// Per-pattern monitors are strictly finer than the BDD monitor at
	// γ = 0: a flagged input either shows an unseen pattern or unseen
	// value magnitudes under a seen pattern.
	PerPattern bool
}

// refinedElement is one abstract value-set with the operations the
// monitor needs; implemented by boxElem and dbmElem.
type refinedElement interface {
	join(p []float64)
	contains(p []float64, eps float64) bool
	finalize() // one-time closure after building (DBM canonicalization)
}

type boxElem struct{ b *absdom.Box }

func (e *boxElem) join(p []float64)                       { e.b.Join(p) }
func (e *boxElem) contains(p []float64, eps float64) bool { return e.b.Contains(p, eps) }
func (e *boxElem) finalize()                              {}

type dbmElem struct{ d *absdom.DBM }

func (e *dbmElem) join(p []float64)                       { e.d.Join(p) }
func (e *dbmElem) contains(p []float64, eps float64) bool { return e.d.Contains(p, eps) }
func (e *dbmElem) finalize()                              { e.d.Canonicalize() }

// refinedClassZone holds the abstraction for one class.
type refinedClassZone struct {
	whole    refinedElement            // used when !PerPattern
	byKey    map[string]refinedElement // used when PerPattern
	inserted int
}

// RefinedMonitor is a value-level activation monitor.
type RefinedMonitor struct {
	cfg     RefinedConfig
	neurons []int
	zones   map[int]*refinedClassZone
}

// newElement allocates an abstract element of the configured domain.
func (cfg RefinedConfig) newElement(dim int) refinedElement {
	switch cfg.Domain {
	case DomainBox:
		return &boxElem{b: absdom.NewBox(dim)}
	case DomainDBM:
		return &dbmElem{d: absdom.NewDBM(dim)}
	default:
		panic("core: unknown refined domain")
	}
}

// BuildRefined constructs a refined monitor by the same recipe as
// Algorithm 1: only correctly classified training samples contribute, to
// the zone of their ground-truth class.
func BuildRefined(net *nn.Network, train []nn.Sample, cfg RefinedConfig) (*RefinedMonitor, error) {
	base, classes, err := newMonitor(net, Config{
		Layer:   cfg.Layer,
		Classes: cfg.Classes,
		Neurons: cfg.Neurons,
	})
	if err != nil {
		return nil, err
	}
	if cfg.Epsilon < 0 {
		return nil, fmt.Errorf("core: negative epsilon %v", cfg.Epsilon)
	}
	m := &RefinedMonitor{
		cfg:     cfg,
		neurons: base.neurons,
		zones:   make(map[int]*refinedClassZone, len(classes)),
	}
	for _, c := range classes {
		m.zones[c] = &refinedClassZone{byKey: map[string]refinedElement{}}
	}
	results := extractValues(net, cfg.Layer, m.neurons, train)
	dim := len(m.neurons)
	for i, r := range results {
		if r.pred != train[i].Label {
			continue
		}
		z, ok := m.zones[train[i].Label]
		if !ok {
			continue
		}
		z.inserted++
		if cfg.PerPattern {
			key := valuesPattern(r.values).Key()
			el, ok := z.byKey[key]
			if !ok {
				el = cfg.newElement(dim)
				z.byKey[key] = el
			}
			el.join(r.values)
		} else {
			if z.whole == nil {
				z.whole = cfg.newElement(dim)
			}
			z.whole.join(r.values)
		}
	}
	for _, z := range m.zones {
		if z.whole != nil {
			z.whole.finalize()
		}
		for _, el := range z.byKey {
			el.finalize()
		}
	}
	return m, nil
}

// valueObs is one observation of the value-based monitors: the
// network's decision and the monitored neurons' activation values.
type valueObs struct {
	pred   int
	values []float64
}

// extractValues runs batched inference over the samples and projects
// each captured activation row onto the monitored neurons.
func extractValues(net *nn.Network, layer int, neurons []int, samples []nn.Sample) []valueObs {
	out := make([]valueObs, len(samples))
	net.Observe(samples, layer, func(i, pred int, acts []float64) {
		values := make([]float64, len(neurons))
		for j, n := range neurons {
			values[j] = acts[n]
		}
		out[i] = valueObs{pred: pred, values: values}
	})
	return out
}

// valuesPattern derives the on/off pattern of a value vector.
func valuesPattern(values []float64) Pattern {
	p := make(Pattern, len(values))
	for i, v := range values {
		p[i] = v > 0
	}
	return p
}

// Config returns the monitor's configuration.
func (m *RefinedMonitor) Config() RefinedConfig { return m.cfg }

// Neurons returns the monitored neuron indices.
func (m *RefinedMonitor) Neurons() []int { return m.neurons }

// Elements returns how many abstract elements class c's zone holds
// (distinct refined patterns, or 1 when PerPattern is false and the class
// saw data).
func (m *RefinedMonitor) Elements(c int) int {
	z, ok := m.zones[c]
	if !ok {
		return 0
	}
	if m.cfg.PerPattern {
		return len(z.byKey)
	}
	if z.whole == nil {
		return 0
	}
	return 1
}

// Watch classifies x and checks its monitored activation values against
// the predicted class's refined zone.
func (m *RefinedMonitor) Watch(net *nn.Network, x *tensor.Tensor) Verdict {
	o := extractValues(net, m.cfg.Layer, m.neurons, []nn.Sample{{Input: x}})[0]
	pred, values := o.pred, o.values
	pattern := valuesPattern(values)
	z, ok := m.zones[pred]
	if !ok {
		return Verdict{Class: pred, Monitored: false, Pattern: pattern}
	}
	return Verdict{
		Class:        pred,
		Monitored:    true,
		OutOfPattern: !m.zoneContains(z, pattern, values),
		Pattern:      pattern,
	}
}

func (m *RefinedMonitor) zoneContains(z *refinedClassZone, pattern Pattern, values []float64) bool {
	if m.cfg.PerPattern {
		el, ok := z.byKey[pattern.Key()]
		if !ok {
			return false
		}
		return el.contains(values, m.cfg.Epsilon)
	}
	if z.whole == nil {
		return false
	}
	return z.whole.contains(values, m.cfg.Epsilon)
}

// EvaluateRefined aggregates Table II-style statistics for a refined
// monitor over a labelled dataset.
func EvaluateRefined(net *nn.Network, m *RefinedMonitor, samples []nn.Sample) Metrics {
	results := extractValues(net, m.cfg.Layer, m.neurons, samples)
	var out Metrics
	out.Total = len(samples)
	for i, r := range results {
		mis := r.pred != samples[i].Label
		if mis {
			out.Misclassified++
		}
		z, ok := m.zones[r.pred]
		if !ok {
			continue
		}
		out.Watched++
		if !m.zoneContains(z, valuesPattern(r.values), r.values) {
			out.OutOfPattern++
			if mis {
				out.OutOfPatternMisclassified++
			}
		}
	}
	return out
}
