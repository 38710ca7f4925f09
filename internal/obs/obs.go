// Package obs is the zero-dependency observability core: a lock-free
// log-bucketed histogram with bounded quantile error, a named-metric
// registry of scrape-time callbacks, and a Prometheus text-format
// exposition writer plus a matching validating parser.
//
// Design constraints, in order:
//
//  1. Hot-path cost. Recording a histogram observation is a pair of
//     atomic adds — no locks, no allocation, no formatting. Every series
//     is a callback (CounterFunc, CounterFloatFunc, GaugeFunc,
//     HistogramFunc) over state the serving code already keeps — the
//     serve pipeline's served/expired atomics, its stage histograms, BDD
//     manager stats — so the serving code pays nothing at all for being
//     observable, the cost lands on the scraper, and a callback that
//     resolves its owner at scrape time follows a reloaded tenant.
//  2. Zero dependencies. The package imports only the standard library,
//     like the rest of the repo; the exposition side speaks the
//     Prometheus text format so any off-the-shelf scraper can consume
//     it without us linking client libraries.
//  3. One registry, many surfaces. napmon-serve, the gateway admin
//     listener and tests all render the same Registry through the same
//     writer; the parser in this package is what the soak harness and
//     napmon-metricslint (`make smoke`) use to read it back.
//
// Registration and Unregister may run concurrently with scraping (a
// tenant loaded or unloaded at runtime adds or removes its series while
// /metrics is being read); a scrape sees each family's series as of its
// start. Duplicate or malformed registrations panic rather than return
// errors, since they are programming mistakes, not runtime conditions.
package obs

import (
	"fmt"
	"sort"
	"sync"
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

// series is one labeled sample stream within a family.
type series struct {
	labels []Label
	// value reads the current sample for counter/gauge series.
	value func() float64
	// hist resolves a histogram series' histogram at scrape time (nil
	// renders as empty); scale multiplies recorded values at exposition
	// time (1e-9 renders nanoseconds as Prometheus seconds).
	hist  func() *Histogram
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

// GaugeFunc registers a gauge whose value is read by fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.add(name, help, kindGauge, &series{labels: labels, value: fn})
}

// HistogramFunc registers a histogram series whose histogram fn
// returns at scrape time — a nil result renders as an empty histogram.
// scale multiplies every recorded value at exposition time: histograms
// fed nanoseconds use scale 1e-9 so the exposed series is in seconds,
// the Prometheus base unit.
func (r *Registry) HistogramFunc(name, help string, fn func() *Histogram, scale float64, labels ...Label) {
	if scale <= 0 {
		panic(fmt.Sprintf("obs: histogram %q: scale must be positive, got %v", name, scale))
	}
	r.add(name, help, kindHistogram, &series{labels: labels, hist: fn, scale: scale})
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

// Unregister removes every series that carries label l, and every
// family it leaves without series, so a label value that goes away (an
// unloaded tenant) stops costing scrape time and page size. A later
// registration of the same series succeeds. A scrape already running
// keeps the series it copied; their callbacks may still run once.
func (r *Registry) Unregister(l Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	order := r.order[:0]
	for _, f := range r.order {
		// A fresh slice, never an in-place filter: a scrape may be
		// reading the old one outside the lock.
		var kept []*series
		for _, s := range f.series {
			if !hasLabel(s.labels, l) {
				kept = append(kept, s)
			}
		}
		if len(kept) < len(f.series) {
			f.series = kept
		}
		if len(f.series) == 0 {
			delete(r.byName, f.name)
			continue
		}
		order = append(order, f)
	}
	clear(r.order[len(order):])
	r.order = order
}

func hasLabel(labels []Label, l Label) bool {
	for _, x := range labels {
		if x == l {
			return true
		}
	}
	return false
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
