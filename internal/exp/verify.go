package exp

import (
	"fmt"

	"napmon/internal/core"
	"napmon/internal/tensor"
)

// Monitor aliases core.Monitor so the experiment binaries can hold
// monitors without importing internal/core directly.
type Monitor = core.Monitor

// VerifyCompiledServing asserts that, for every validation input, the
// batched serving path (compiled plans, membership grouped per class) and
// the per-sample Watch path both return Definition 2's verdict, computed
// by a referee that shares no BDD, plan or batched inference with them:
// the per-sample forward pass (Network.ForwardCapture → PatternOfSubset)
// gives class and pattern, and core.ExactZone over each monitored class's
// correctly classified training patterns, at mon.Gamma(), gives
// membership. mon must hold what Build recorded from m.Data.Train; γ may
// have moved since. Returns the number of inputs checked.
func VerifyCompiledServing(m *Model, mon *core.Monitor) (int, error) {
	layer, neurons := mon.Config().Layer, mon.Neurons()
	observe := func(x *tensor.Tensor) (int, core.Pattern) {
		logits, acts := m.Net.ForwardCapture(x, layer)
		return logits.ArgMax(), core.PatternOfSubset(acts, neurons)
	}
	exact := make(map[int]*core.ExactZone)
	for _, c := range mon.Classes() {
		exact[c] = core.NewExactZone(len(neurons))
		exact[c].SetGamma(mon.Gamma())
	}
	for _, s := range m.Data.Train {
		if pred, p := observe(s.Input); pred == s.Label && exact[pred] != nil {
			exact[pred].Insert(p)
		}
	}
	inputs := make([]*tensor.Tensor, len(m.Data.Val))
	for i, s := range m.Data.Val {
		inputs[i] = s.Input
	}
	for i, v := range mon.WatchBatch(m.Net, inputs) {
		pred, p := observe(inputs[i])
		z := exact[pred]
		want := core.Verdict{Class: pred, Monitored: z != nil, OutOfPattern: z != nil && !z.Contains(p), Pattern: p}
		for _, got := range []core.Verdict{v, mon.Watch(m.Net, inputs[i])} {
			if got.Class != want.Class || got.Monitored != want.Monitored ||
				got.OutOfPattern != want.OutOfPattern || got.Pattern.String() != want.Pattern.String() {
				return i, fmt.Errorf("exp: input %d: served %+v, Definition 2 says %+v", i, got, want)
			}
		}
	}
	return len(inputs), nil
}
