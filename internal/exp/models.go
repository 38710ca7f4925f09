// Package exp contains the experiment drivers that regenerate every table
// and figure of the paper's evaluation. The cmd/ binaries and the
// top-level benchmarks are thin wrappers around this package, so full runs
// and scaled-down smoke runs share one code path. See DESIGN.md for the
// experiment index.
package exp

import (
	"fmt"
	"io"

	"napmon/internal/dataset"
	"napmon/internal/nn"
	"napmon/internal/rng"
)

// Options sizes an experiment run. Scale 1 is the full configuration the
// numbers in EXPERIMENTS.md were produced with; smaller scales shrink the
// datasets and epochs proportionally for quick runs and benchmarks.
type Options struct {
	Scale float64
	Seed  uint64
	// Log receives training progress lines; nil silences them.
	Log io.Writer
}

// DefaultOptions returns the full-scale configuration.
func DefaultOptions() Options { return Options{Scale: 1, Seed: 1} }

func (o Options) scaled(n int) int {
	if o.Scale <= 0 {
		return n
	}
	v := int(float64(n) * o.Scale)
	if v < 1 {
		v = 1
	}
	return v
}

// Model bundles a trained network with its dataset and the metadata the
// monitor experiments need.
type Model struct {
	// ID matches the paper's Table I network numbering (1 = MNIST,
	// 2 = GTSRB).
	ID   int
	Name string
	Net  *nn.Network
	Data dataset.Dataset
	// MonitorLayer is the index of the bold layer of Table I (the
	// ReLU whose pattern is monitored).
	MonitorLayer int
	TrainAcc     float64
	ValAcc       float64
}

// MNISTNetSpecs returns the paper's network 1 architecture:
// ReLU(Conv(40)), MaxPool, ReLU(Conv(20)), MaxPool, ReLU(fc(320)),
// ReLU(fc(160)), ReLU(fc(80)), ReLU(fc(40)) [monitored], fc(10).
// Kernel size (5,5), stride (1,1), 2×2 max pooling.
func MNISTNetSpecs() (specs []nn.Spec, monitorLayer int) {
	specs = []nn.Spec{
		{Kind: nn.KindConv, Out: 40, InC: 1, KH: 5, KW: 5, Stride: 1},
		{Kind: nn.KindReLU},
		{Kind: nn.KindMaxPool, Size: 2},
		{Kind: nn.KindConv, Out: 20, InC: 40, KH: 5, KW: 5, Stride: 1},
		{Kind: nn.KindReLU},
		{Kind: nn.KindMaxPool, Size: 2},
		{Kind: nn.KindFlatten},
		{Kind: nn.KindDense, In: 320, Out: 320},
		{Kind: nn.KindReLU},
		{Kind: nn.KindDense, In: 320, Out: 160},
		{Kind: nn.KindReLU},
		{Kind: nn.KindDense, In: 160, Out: 80},
		{Kind: nn.KindReLU},
		{Kind: nn.KindDense, In: 80, Out: 40},
		{Kind: nn.KindReLU}, // monitored: ReLU(fc(40))
		{Kind: nn.KindDense, In: 40, Out: 10},
	}
	return specs, 14
}

// GTSRBNetSpecs returns the paper's network 2 architecture:
// ReLU(BN(Conv(40))), MaxPool, ReLU(BN(Conv(20))), MaxPool,
// ReLU(fc(240)), ReLU(fc(84)) [monitored], fc(43).
func GTSRBNetSpecs() (specs []nn.Spec, monitorLayer int) {
	specs = []nn.Spec{
		{Kind: nn.KindConv, Out: 40, InC: 3, KH: 5, KW: 5, Stride: 1},
		{Kind: nn.KindBN, Ch: 40},
		{Kind: nn.KindReLU},
		{Kind: nn.KindMaxPool, Size: 2},
		{Kind: nn.KindConv, Out: 20, InC: 40, KH: 5, KW: 5, Stride: 1},
		{Kind: nn.KindBN, Ch: 20},
		{Kind: nn.KindReLU},
		{Kind: nn.KindMaxPool, Size: 2},
		{Kind: nn.KindFlatten},
		{Kind: nn.KindDense, In: 500, Out: 240},
		{Kind: nn.KindReLU},
		{Kind: nn.KindDense, In: 240, Out: 84},
		{Kind: nn.KindReLU}, // monitored: ReLU(fc(84))
		{Kind: nn.KindDense, In: 84, Out: 43},
	}
	return specs, 12
}

// TrainDataset trains the Table I network of the named dataset, "mnist"
// (TrainMNIST) or "gtsrb" (TrainGTSRB). Any other name is an error,
// reported before training.
func TrainDataset(name string, opts Options) (*Model, error) {
	switch name {
	case "mnist":
		return TrainMNIST(opts)
	case "gtsrb":
		return TrainGTSRB(opts)
	default:
		return nil, fmt.Errorf("unknown dataset %q (want mnist or gtsrb)", name)
	}
}

// TrainMNIST trains network 1 on the MNIST-like dataset.
func TrainMNIST(opts Options) (*Model, error) {
	ds := dataset.MNISTLike(opts.scaled(3000), opts.scaled(1500), opts.Seed+10)
	return train(&Model{ID: 1, Name: "MNIST", Data: ds}, MNISTNetSpecs, opts.Seed,
		nn.TrainConfig{Epochs: 5, BatchSize: 32, LR: 0.02, LRDecay: 0.85, Seed: opts.Seed + 20, Log: opts.Log})
}

// TrainGTSRB trains network 2 on the GTSRB-like dataset.
func TrainGTSRB(opts Options) (*Model, error) {
	ds := dataset.GTSRBLike(opts.scaled(4300), opts.scaled(2150), opts.Seed+11)
	return train(&Model{ID: 2, Name: "GTSRB", Data: ds}, GTSRBNetSpecs, opts.Seed+1,
		nn.TrainConfig{Epochs: 12, BatchSize: 32, LR: 0.03, LRDecay: 0.93, Seed: opts.Seed + 21, Log: opts.Log})
}

// train builds m's network from specs with the given seed, trains it on
// m.Data with cfg and records its accuracies.
func train(m *Model, specs func() ([]nn.Spec, int), seed uint64, cfg nn.TrainConfig) (*Model, error) {
	s, layer := specs()
	net, err := nn.Build(s, rng.New(seed))
	if err != nil {
		return nil, err
	}
	nn.Train(net, m.Data.Train, cfg)
	m.Net, m.MonitorLayer = net, layer
	m.TrainAcc, m.ValAcc = nn.Accuracy(net, m.Data.Train), nn.Accuracy(net, m.Data.Val)
	return m, nil
}

// ArchString renders the model architecture like the paper's Table I.
func (m *Model) ArchString() string {
	return fmt.Sprintf("%v", m.Net)
}
