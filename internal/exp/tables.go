package exp

import (
	"fmt"
	"strings"

	"napmon/internal/core"
	"napmon/internal/dataset"
	"napmon/internal/nn"
)

// Table1Row is one row of the paper's Table I.
type Table1Row struct {
	ID       int
	Name     string
	Arch     string
	TrainAcc float64
	ValAcc   float64
}

// Table1Rows derives Table I from trained models.
func Table1Rows(models ...*Model) []Table1Row {
	rows := make([]Table1Row, len(models))
	for i, m := range models {
		rows[i] = Table1Row{
			ID:       m.ID,
			Name:     m.Name,
			Arch:     m.ArchString(),
			TrainAcc: m.TrainAcc,
			ValAcc:   m.ValAcc,
		}
	}
	return rows
}

// RenderTable1 formats Table I like the paper.
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("TABLE I: architectures and accuracies (train/validation)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%d  %-6s %s\n     accuracy %.2f%% / %.2f%%\n",
			r.ID, r.Name, r.Arch, 100*r.TrainAcc, 100*r.ValAcc)
	}
	return b.String()
}

// Table2Row is one γ row of the paper's Table II.
type Table2Row struct {
	ID      int
	Gamma   int
	Metrics core.Metrics
}

// MNISTMonitorConfig returns the paper's monitor configuration for network
// 1: the ReLU(fc(40)) layer, all classes, all 40 neurons.
func MNISTMonitorConfig(m *Model) core.Config {
	return core.Config{Layer: m.MonitorLayer}
}

// GTSRBMonitorConfig returns the paper's monitor configuration for network
// 2: the ReLU(fc(84)) layer, stop-sign class only (c = 14), and 25% of the
// 84 neurons chosen by gradient-based sensitivity analysis. Because the
// monitored layer feeds the linear output layer directly, the gradients
// are the output weights (the paper's special case).
func GTSRBMonitorConfig(m *Model) (core.Config, error) {
	out, ok := m.Net.Layer(m.Net.NumLayers() - 1).(*nn.Dense)
	if !ok {
		return core.Config{}, fmt.Errorf("exp: network 2 output layer is not dense")
	}
	neurons, err := core.SelectNeuronsByWeight(out, dataset.StopSignClass, 0.25)
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{
		Layer:   m.MonitorLayer,
		Classes: []int{dataset.StopSignClass},
		Neurons: neurons,
	}, nil
}

// Table2ForModel builds the model's monitor per the paper's configuration
// at the deepest of the given levels and sweeps γ over them, returning one
// row per level. The monitor is left serving at the last level. A
// negative level is an error, reported before anything is built.
func Table2ForModel(m *Model, gammas []int) ([]Table2Row, *core.Monitor, error) {
	for _, g := range gammas {
		if g < 0 {
			return nil, nil, fmt.Errorf("exp: negative gamma %d", g)
		}
	}
	var cfg core.Config
	var err error
	switch m.ID {
	case 1:
		cfg = MNISTMonitorConfig(m)
	case 2:
		cfg, err = GTSRBMonitorConfig(m)
		if err != nil {
			return nil, nil, err
		}
	default:
		return nil, nil, fmt.Errorf("exp: unknown model id %d", m.ID)
	}
	for _, g := range gammas {
		cfg.Gamma = max(cfg.Gamma, g)
	}
	mon, err := core.Build(m.Net, m.Data.Train, cfg)
	if err != nil {
		return nil, nil, err
	}
	metrics := core.GammaSweep(m.Net, mon, m.Data.Val, gammas)
	rows := make([]Table2Row, len(gammas))
	for i, g := range gammas {
		rows[i] = Table2Row{ID: m.ID, Gamma: g, Metrics: metrics[i]}
	}
	return rows, mon, nil
}

// RenderTable2 formats rows like the paper's Table II.
func RenderTable2(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("TABLE II: runtime neuron activation monitoring\n")
	b.WriteString("ID  misclass.rate  gamma  out-of-pattern/total  misclassified|out-of-pattern\n")
	lastID := -1
	for _, r := range rows {
		mis := ""
		if r.ID != lastID {
			mis = fmt.Sprintf("%.2f%%", 100*r.Metrics.MisclassificationRate())
			lastID = r.ID
		}
		fmt.Fprintf(&b, "%-3d %-14s %-6d %-21s %s\n",
			r.ID, mis, r.Gamma,
			fmt.Sprintf("%.2f%%", 100*r.Metrics.OutOfPatternRate()),
			fmt.Sprintf("%.2f%%", 100*r.Metrics.OutOfPatternPrecision()))
	}
	return b.String()
}

// Figure2Point is one point of the coarseness sweep: how the out-of-
// pattern rate falls from "everything unseen" (α1, no generalization)
// toward "nothing unseen" (α3, over-generalization) as γ grows.
type Figure2Point struct {
	Gamma     int
	OutRate   float64
	Precision float64
	// ZonePatterns is the total pattern count across zones (abstraction
	// size).
	ZonePatterns float64
}

// Figure2Sweep sweeps γ from 0 to maxGamma on the model's Table II monitor
// and records the trajectory between the two useless extremes of Figure 2.
// Like core.GammaSweep it publishes maxGamma once and then re-views every
// level as a new epoch.
func Figure2Sweep(m *Model, mon *core.Monitor, maxGamma int) []Figure2Point {
	level := func(g int) {
		if _, err := mon.UpdateGamma(g); err != nil {
			panic(err) // unreachable for levels within the monitored width
		}
	}
	level(maxGamma)
	pts := make([]Figure2Point, 0, maxGamma+1)
	for g := 0; g <= maxGamma; g++ {
		level(g)
		met := core.Evaluate(m.Net, mon, m.Data.Val)
		total := 0.0
		for _, c := range mon.Classes() {
			total += mon.Zone(c).PatternCount()
		}
		pts = append(pts, Figure2Point{
			Gamma:        g,
			OutRate:      met.OutOfPatternRate(),
			Precision:    met.OutOfPatternPrecision(),
			ZonePatterns: total,
		})
	}
	return pts
}

// RenderFigure2 draws the sweep as an ASCII chart of out-of-pattern rate
// versus γ, annotating the no-generalization and over-generalization ends.
func RenderFigure2(pts []Figure2Point) string {
	var b strings.Builder
	b.WriteString("FIGURE 2: coarseness of abstraction (out-of-pattern rate vs gamma)\n")
	for _, p := range pts {
		bar := strings.Repeat("#", int(p.OutRate*50+0.5))
		note := ""
		if p.Gamma == 0 {
			note = "  <- alpha_1: finest (no generalization)"
		}
		if p.OutRate == 0 {
			note = "  <- alpha_3: over-generalization (monitor silent)"
		}
		fmt.Fprintf(&b, "gamma %2d  %6.2f%%  |%-50s|%s\n", p.Gamma, 100*p.OutRate, bar, note)
	}
	return b.String()
}
