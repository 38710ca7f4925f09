package core

import (
	"fmt"
	"slices"

	"napmon/internal/nn"
)

// Metrics aggregates the quantities Table II of the paper reports for one
// (monitor, dataset) pair.
type Metrics struct {
	// Total is the number of evaluated samples.
	Total int
	// Misclassified counts samples the network classified incorrectly
	// (over all samples, matching the paper's per-network
	// "misclassification rate" column).
	Misclassified int
	// Watched counts samples whose predicted class is monitored; the
	// out-of-pattern statistics are relative to this population. With all
	// classes monitored, Watched == Total.
	Watched int
	// OutOfPattern counts watched samples whose activation pattern fell
	// outside the predicted class's comfort zone.
	OutOfPattern int
	// OutOfPatternMisclassified counts out-of-pattern samples that were
	// also misclassified.
	OutOfPatternMisclassified int
}

// MisclassificationRate returns Misclassified / Total.
func (m Metrics) MisclassificationRate() float64 {
	return ratio(m.Misclassified, m.Total)
}

// OutOfPatternRate returns the paper's column
// "#out-of-pattern images / #total images", with the denominator being
// the watched population.
func (m Metrics) OutOfPatternRate() float64 {
	return ratio(m.OutOfPattern, m.Watched)
}

// OutOfPatternPrecision returns the paper's column
// "#out-of-pattern misclassified images / #out-of-pattern images": the
// probability that a flagged decision is indeed wrong.
func (m Metrics) OutOfPatternPrecision() float64 {
	return ratio(m.OutOfPatternMisclassified, m.OutOfPattern)
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// obs is one extracted observation of the evaluation loops: the
// network's decision and the activation pattern over the monitored
// neurons (thermometer-encoded for quantized monitors).
type obs struct {
	pred    int
	pattern Pattern
}

// extractObs runs batched inference and pattern extraction over the
// samples.
func extractObs(net *nn.Network, layer int, neurons []int, samples []nn.Sample) []obs {
	out := make([]obs, len(samples))
	net.Observe(samples, layer, func(i, pred int, acts []float64) {
		out[i] = obs{pred: pred, pattern: PatternOfRow(acts, neurons)}
	})
	return out
}

// tallyMetrics aggregates the Table II statistics over extracted
// observations, answering each membership query through member — the
// single tally shared by every evaluator, so a new counter cannot be
// added to one variant and missed in another.
func tallyMetrics(results []obs, samples []nn.Sample, zones map[int]*Zone,
	member func(*Zone, Pattern) (bool, error)) (Metrics, error) {
	var out Metrics
	out.Total = len(samples)
	for i, r := range results {
		mis := r.pred != samples[i].Label
		if mis {
			out.Misclassified++
		}
		z, ok := zones[r.pred]
		if !ok {
			continue
		}
		out.Watched++
		in, err := member(z, r.pattern)
		if err != nil {
			return Metrics{}, fmt.Errorf("core: evaluating class %d: %w", r.pred, err)
		}
		if !in {
			out.OutOfPattern++
			if mis {
				out.OutOfPatternMisclassified++
			}
		}
	}
	return out, nil
}

// Evaluate runs the monitor over a labelled dataset (typically the
// validation set, per §III's procedure for deciding the coarseness of
// abstraction) and aggregates the Table II statistics. Inference and
// pattern extraction run batched; zone queries are sequential and
// read-only. The serving epoch is loaded once for the whole evaluation,
// so the metrics describe exactly one generation even while online
// updates publish new ones.
func Evaluate(net *nn.Network, m *Monitor, samples []nn.Sample) Metrics {
	results := extractObs(net, m.cfg.Layer, m.neurons, samples)
	e := m.cur.Load()
	out, _ := tallyMetrics(results, samples, e.zones, func(z *Zone, p Pattern) (bool, error) {
		return z.Contains(p), nil
	})
	return out
}

// EvaluateAt aggregates the Table II statistics at an explicit
// enlargement level without changing the monitor's serving γ and without
// publishing an epoch. Only the serving epoch's cached levels are
// queryable; asking deeper returns an error instead of panicking — the
// monitor-level surface of Zone.ContainsAtErr, so a serving daemon probing
// alternative γs can degrade gracefully rather than crash (publish a
// deeper level with Monitor.UpdateGamma).
func EvaluateAt(net *nn.Network, m *Monitor, samples []nn.Sample, gamma int) (Metrics, error) {
	if gamma < 0 {
		return Metrics{}, fmt.Errorf("core: negative gamma %d", gamma)
	}
	results := extractObs(net, m.cfg.Layer, m.neurons, samples)
	e := m.cur.Load()
	return tallyMetrics(results, samples, e.zones, func(z *Zone, p Pattern) (bool, error) {
		return z.ContainsAtErr(gamma, p)
	})
}

// GammaSweep evaluates the monitor at each γ in gammas and returns one
// Metrics per γ. It publishes the deepest level once (UpdateGamma), so
// every other level is an O(1) re-view epoch, and leaves the monitor at
// the last γ. Each level is a serving epoch, so sweeping a live monitor
// never races its readers.
func GammaSweep(net *nn.Network, m *Monitor, samples []nn.Sample, gammas []int) []Metrics {
	out := make([]Metrics, len(gammas))
	if len(gammas) == 0 {
		return out
	}
	mustUpdateGamma(m, slices.Max(gammas))
	for i, g := range gammas {
		mustUpdateGamma(m, g)
		out[i] = Evaluate(net, m, samples)
	}
	return out
}

// mustUpdateGamma publishes γ as the serving level. A negative or
// wider-than-the-pattern γ panics: the sweep helpers take their levels
// from the caller's code, not from input.
func mustUpdateGamma(m *Monitor, g int) {
	if _, err := m.UpdateGamma(g); err != nil {
		panic(err)
	}
}

// InferGamma implements the paper's "infer when to stop enlarging"
// procedure: starting from γ = 0 it grows γ until the out-of-pattern
// precision on the validation set reaches minPrecision (the flagged
// decisions are likely misclassifications) or the out-of-pattern rate
// falls below minRate (the monitor has become too coarse to ever fire),
// whichever comes first, capped at maxGamma. It returns the chosen γ and
// the metrics observed at each level tried.
func InferGamma(net *nn.Network, m *Monitor, validation []nn.Sample,
	minPrecision, minRate float64, maxGamma int) (int, []Metrics) {
	var history []Metrics
	for g := 0; g <= maxGamma; g++ {
		mustUpdateGamma(m, g)
		metrics := Evaluate(net, m, validation)
		history = append(history, metrics)
		if metrics.OutOfPatternPrecision() >= minPrecision || metrics.OutOfPatternRate() <= minRate {
			return g, history
		}
	}
	mustUpdateGamma(m, maxGamma)
	return maxGamma, history
}
