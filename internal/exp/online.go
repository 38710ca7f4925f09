package exp

import (
	"fmt"
	"strings"

	"napmon/internal/core"
	"napmon/internal/nn"
)

// The online-phase experiment measures serve-while-retraining: a monitor
// is built from only part of the training patterns, and then the
// withheld patterns are streamed back in through the online updater
// (Monitor.UpdateBatch) in chunks — the epoch-swap path a production
// napmon uses to absorb newly observed activations without a serving
// gap. After every published epoch the validation set is re-evaluated,
// so the result traces how the detection (out-of-pattern) rate drifts as
// the comfort zones converge toward the full-build monitor.

// OnlinePoint is one epoch of the online phase.
type OnlinePoint struct {
	// Epoch is the serving epoch id the metrics were measured against
	// (1 = the build epoch, before any update).
	Epoch uint64
	// Absorbed is the cumulative number of patterns fed through the
	// updater up to this epoch.
	Absorbed int
	// Metrics is the validation-set evaluation at this epoch.
	Metrics core.Metrics
}

// OnlineResult is the outcome of the online-phase experiment.
type OnlineResult struct {
	Name  string
	Gamma int
	// HoldoutFrac is the fraction of the training set withheld from the
	// initial build and streamed in online.
	HoldoutFrac float64
	Points      []OnlinePoint
	// FullBuild is the reference: the validation metrics of a monitor
	// built from the entire training set in one shot at the same γ. The
	// final online point should converge to it (exactly, when every
	// withheld pattern has been absorbed — the updater's equivalence
	// property).
	FullBuild core.Metrics
}

// OnlineStudy runs the online-phase experiment on the Table I MNIST
// network: build on half the training set, then absorb the withheld
// half's activation patterns in `chunks` online updates, re-evaluating
// the validation set at every epoch.
func OnlineStudy(opts Options) (*OnlineResult, error) {
	return onlineStudy(opts, 2, 5)
}

func onlineStudy(opts Options, gamma, chunks int) (*OnlineResult, error) {
	m, err := TrainMNIST(opts)
	if err != nil {
		return nil, err
	}
	cfg := MNISTMonitorConfig(m)
	cfg.Gamma = gamma

	half := len(m.Data.Train) / 2
	build, holdout := m.Data.Train[:half], m.Data.Train[half:]

	mon, err := core.Build(m.Net, build, cfg)
	if err != nil {
		return nil, err
	}
	res := &OnlineResult{
		Name:        m.Name,
		Gamma:       gamma,
		HoldoutFrac: float64(len(holdout)) / float64(len(m.Data.Train)),
	}
	res.Points = append(res.Points, OnlinePoint{
		Epoch:   mon.Epoch(),
		Metrics: core.Evaluate(m.Net, mon, m.Data.Val),
	})

	absorbed := 0
	for i := 0; i < chunks; i++ {
		lo := i * len(holdout) / chunks
		hi := (i + 1) * len(holdout) / chunks
		delta := extractPatterns(m.Net, mon, holdout[lo:hi])
		n := 0
		for _, pats := range delta {
			n += len(pats)
		}
		if _, err := mon.UpdateBatch(delta); err != nil {
			return nil, err
		}
		absorbed += n
		res.Points = append(res.Points, OnlinePoint{
			Epoch:    mon.Epoch(),
			Absorbed: absorbed,
			Metrics:  core.Evaluate(m.Net, mon, m.Data.Val),
		})
	}

	full, err := core.Build(m.Net, m.Data.Train, cfg)
	if err != nil {
		return nil, err
	}
	res.FullBuild = core.Evaluate(m.Net, full, m.Data.Val)
	return res, nil
}

// extractPatterns replays Algorithm 1's recording rule over new samples:
// the activation pattern of every correctly classified sample, keyed by
// its ground-truth class — exactly the delta Monitor.UpdateBatch absorbs.
func extractPatterns(net *nn.Network, mon *core.Monitor, samples []nn.Sample) map[int][]core.Pattern {
	neurons := mon.Neurons()
	delta := make(map[int][]core.Pattern)
	net.Observe(samples, mon.Config().Layer, func(i, pred int, acts []float64) {
		if label := samples[i].Label; pred == label && mon.Zone(label) != nil {
			delta[label] = append(delta[label], core.PatternOfRow(acts, neurons))
		}
	})
	return delta
}

// RenderOnline formats the drift trace: out-of-pattern rate per epoch as
// zones absorb the held-out patterns, against the full-build reference.
func RenderOnline(res *OnlineResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "ONLINE PHASE: %s monitor, gamma=%d, %.0f%% of training patterns streamed in online\n",
		res.Name, res.Gamma, 100*res.HoldoutFrac)
	b.WriteString("epoch  absorbed  out-of-pattern/total  misclassified|out-of-pattern\n")
	for _, p := range res.Points {
		fmt.Fprintf(&b, "%-6d %-9d %-21s %s\n",
			p.Epoch, p.Absorbed,
			fmt.Sprintf("%.2f%%", 100*p.Metrics.OutOfPatternRate()),
			fmt.Sprintf("%.2f%%", 100*p.Metrics.OutOfPatternPrecision()))
	}
	fmt.Fprintf(&b, "full   (one-shot) %-21s %s\n",
		fmt.Sprintf("%.2f%%", 100*res.FullBuild.OutOfPatternRate()),
		fmt.Sprintf("%.2f%%", 100*res.FullBuild.OutOfPatternPrecision()))
	return b.String()
}
