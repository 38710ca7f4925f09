package exp

import (
	"fmt"
	"math"

	"napmon/internal/core"
	"napmon/internal/tensor"
)

// Monitor aliases core.Monitor so the experiment binaries can hold
// monitors without importing internal/core directly.
type Monitor = core.Monitor

// servedFlipEps is how close to 0 a monitored neuron's float64
// activation must be for the served pattern, computed in float32, to
// hold the other on/off bit than the float64 referee. The float32 pass
// stays within 2⁻¹⁹ of the float64 one relative to its row's largest
// magnitude (nn's f32Tol tests); on the two Table I networks trained at
// scale 0.1 the largest |float32 − float64| at the monitored layer is
// below 1e-5 (EXPERIMENTS.md, "Serving in float32"), so 1e-4 leaves a
// tenfold margin, while a disagreement on an activation farther from 0 —
// a wrong weight, kernel or pattern — still fails.
const servedFlipEps = 1e-4

// VerifyCompiledServing asserts that, for every validation input, the
// batched serving path (compiled plans, membership grouped per class) and
// the per-sample Watch path both return Definition 2's verdict, computed
// by a referee that shares no BDD, plan or batched inference with them:
// the per-sample float64 forward pass (Network.ForwardCapture →
// PatternOfSubset) gives class and pattern, and core.ExactZone over each
// monitored class's correctly classified training patterns, at
// mon.Gamma(), gives membership. mon must hold what Build recorded from
// m.Data.Train; γ may have moved since.
//
// Serving computes in float32, so a monitored bit may legitimately
// differ from the referee's where the float64 activation lies within
// servedFlipEps of 0. Such an input is an accepted flip: a training
// input's served pattern (the one Build recorded) enters the referee's
// zone, and a validation input is left out of the verdict comparison.
// Any other difference — a bit farther from 0, or a class — fails.
// Returns the number of validation inputs checked and of accepted flips.
func VerifyCompiledServing(m *Model, mon *core.Monitor) (checked, flips int, err error) {
	layer, neurons := mon.Config().Layer, mon.Neurons()
	observe := func(x *tensor.Tensor) (int, core.Pattern, []float64) {
		logits, acts := m.Net.ForwardCapture(x, layer)
		return logits.ArgMax(), core.PatternOfSubset(acts, neurons), acts.Data()
	}
	// served compares a served verdict with the referee's class and
	// pattern: it reports an accepted flip, or fails.
	served := func(what string, i int, v core.Verdict, pred int, p core.Pattern, acts []float64) (bool, error) {
		if v.Class != pred {
			return false, fmt.Errorf("exp: %s input %d: served class %d, float64 class %d", what, i, v.Class, pred)
		}
		flipped, err := flipWithinEps(v.Pattern, p, acts, neurons)
		if err != nil {
			return false, fmt.Errorf("exp: %s input %d: %w", what, i, err)
		}
		return flipped, nil
	}
	exact := make(map[int]*core.ExactZone)
	for _, c := range mon.Classes() {
		exact[c] = core.NewExactZone(len(neurons))
		exact[c].SetGamma(mon.Gamma())
	}
	train := make([]*tensor.Tensor, len(m.Data.Train))
	for i, s := range m.Data.Train {
		train[i] = s.Input
	}
	for i, v := range mon.WatchBatch(m.Net, train) {
		pred, p, acts := observe(train[i])
		flipped, err := served("training", i, v, pred, p, acts)
		if err != nil {
			return 0, flips, err
		}
		if flipped {
			flips++
			p = v.Pattern
		}
		if pred == m.Data.Train[i].Label && exact[pred] != nil {
			exact[pred].Insert(p)
		}
	}
	inputs := make([]*tensor.Tensor, len(m.Data.Val))
	for i, s := range m.Data.Val {
		inputs[i] = s.Input
	}
	for i, v := range mon.WatchBatch(m.Net, inputs) {
		pred, p, acts := observe(inputs[i])
		z := exact[pred]
		want := core.Verdict{Class: pred, Monitored: z != nil, OutOfPattern: z != nil && !z.Contains(p), Pattern: p}
		for j, got := range []core.Verdict{v, mon.Watch(m.Net, inputs[i])} {
			flipped, err := served("validation", i, got, pred, p, acts)
			if err != nil {
				return i, flips, err
			}
			if flipped {
				if j == 0 {
					flips++
				}
				continue
			}
			if got.Monitored != want.Monitored || got.OutOfPattern != want.OutOfPattern {
				return i, flips, fmt.Errorf("exp: input %d: served %+v, Definition 2 says %+v", i, got, want)
			}
		}
	}
	return len(inputs), flips, nil
}

// flipWithinEps compares a served pattern with the referee's over the
// monitored neurons: it reports whether they differ, and fails when a
// differing bit's float64 activation is farther than servedFlipEps
// from 0.
func flipWithinEps(served, ref core.Pattern, acts []float64, neurons []int) (bool, error) {
	if len(served) != len(ref) {
		return false, fmt.Errorf("served pattern has %d bits, want %d", len(served), len(ref))
	}
	flipped := false
	for b := range ref {
		if served[b] == ref[b] {
			continue
		}
		if a := acts[neurons[b]]; math.Abs(a) > servedFlipEps {
			return false, fmt.Errorf("monitored bit %d (neuron %d, float64 activation %g) served %v, Definition 2 says %v",
				b, neurons[b], a, served[b], ref[b])
		}
		flipped = true
	}
	return flipped, nil
}
