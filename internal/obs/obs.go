// Package obs is the zero-dependency observability core: atomic
// counters and gauges, a lock-free log-bucketed histogram with bounded
// quantile error, a named-metric registry, and a Prometheus text-format
// exposition writer plus a matching validating parser.
//
// Design constraints, in order:
//
//  1. Hot-path cost. Recording a counter or histogram observation is a
//     handful of atomic adds — no locks, no allocation, no formatting.
//     Metrics that already exist as atomics elsewhere (the serve
//     pipeline's served/shed counters, BDD manager stats) register as
//     CounterFunc/GaugeFunc callbacks, so the serving code pays nothing
//     at all and the cost lands on the scraper.
//  2. Zero dependencies. The package imports only the standard library,
//     like the rest of the repo; the exposition side speaks the
//     Prometheus text format so any off-the-shelf scraper can consume
//     it without us linking client libraries.
//  3. One registry, many surfaces. napmon-serve, the gateway admin
//     listener and tests all render the same Registry through the same
//     writer; the parser in this package is what the soak harness and
//     napmon-metricslint (`make smoke`) use to read it back.
//
// Registration happens at startup (Server/Gateway construction); it is
// not designed for concurrent registration with scraping, and duplicate
// or malformed registrations panic rather than return errors, since
// they are programming mistakes, not runtime conditions.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Label is one name="value" pair attached to a series.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increments by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic value that may go up and down.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add increments by n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// series is one labeled sample stream within a family.
type series struct {
	labels []Label
	// value reads the current sample for counter/gauge series.
	value func() float64
	// hist backs histogram series; scale multiplies recorded values at
	// exposition time (1e-9 renders nanoseconds as Prometheus seconds).
	hist  *Histogram
	scale float64
}

// family groups every series registered under one metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	series []*series
}

// Registry holds named metrics and renders them as Prometheus text.
type Registry struct {
	mu     sync.Mutex
	order  []*family
	byName map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// NewCounter registers and returns a counter series.
func (r *Registry) NewCounter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.CounterFunc(name, help, func() uint64 { return c.Value() }, labels...)
	return c
}

// CounterFunc registers a counter whose value is read by fn at scrape
// time — the bridge for code that already maintains its own atomics.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	r.add(name, help, kindCounter, &series{
		labels: labels,
		value:  func() float64 { return float64(fn()) },
	})
}

// CounterFloatFunc registers a counter with a float-valued callback —
// for monotone totals natively kept in another unit (e.g. cumulative
// nanoseconds exposed as seconds).
func (r *Registry) CounterFloatFunc(name, help string, fn func() float64, labels ...Label) {
	r.add(name, help, kindCounter, &series{labels: labels, value: fn})
}

// NewGauge registers and returns a gauge series.
func (r *Registry) NewGauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{}
	r.GaugeFunc(name, help, func() float64 { return float64(g.Value()) }, labels...)
	return g
}

// GaugeFunc registers a gauge whose value is read by fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.add(name, help, kindGauge, &series{labels: labels, value: fn})
}

// NewHistogram registers and returns a histogram series. scale
// multiplies every recorded value at exposition time: histograms fed
// nanoseconds use scale 1e-9 so the exposed series is in seconds, the
// Prometheus base unit.
func (r *Registry) NewHistogram(name, help string, scale float64, labels ...Label) *Histogram {
	h := &Histogram{}
	r.HistogramRef(name, help, h, scale, labels...)
	return h
}

// HistogramRef registers an existing histogram (one the serving path
// already records into) under name.
func (r *Registry) HistogramRef(name, help string, h *Histogram, scale float64, labels ...Label) {
	if scale <= 0 {
		panic(fmt.Sprintf("obs: histogram %q: scale must be positive, got %v", name, scale))
	}
	r.add(name, help, kindHistogram, &series{labels: labels, hist: h, scale: scale})
}

func (r *Registry) add(name, help string, kind metricKind, s *series) {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range s.labels {
		if !validLabelName(l.Name) {
			panic(fmt.Sprintf("obs: metric %q: invalid label name %q", name, l.Name))
		}
		if l.Name == "le" && kind == kindHistogram {
			panic(fmt.Sprintf("obs: metric %q: label \"le\" is reserved on histograms", name))
		}
	}
	// Canonical label order makes duplicate detection and exposition
	// independent of the caller's argument order.
	sort.SliceStable(s.labels, func(i, j int) bool { return s.labels[i].Name < s.labels[j].Name })

	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.byName[name] = f
		r.order = append(r.order, f)
	} else {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.kind, kind))
		}
	}
	for _, prev := range f.series {
		if sameLabels(prev.labels, s.labels) {
			panic(fmt.Sprintf("obs: metric %q: duplicate series %v", name, s.labels))
		}
	}
	f.series = append(f.series, s)
}

func sameLabels(a, b []Label) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}
