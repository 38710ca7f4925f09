package nn

import (
	"fmt"
	"io"

	"napmon/internal/rng"
	"napmon/internal/tensor"
)

// Sample is one labelled training or evaluation example.
type Sample struct {
	Input *tensor.Tensor
	Label int
}

// SGD is a stochastic gradient descent optimizer with classical momentum
// and optional L2 weight decay.
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64

	velocity map[*tensor.Tensor]*tensor.Tensor
}

// NewSGD returns an SGD optimizer with the given learning rate and
// momentum 0.9.
func NewSGD(lr float64) *SGD {
	return &SGD{LR: lr, Momentum: 0.9, velocity: map[*tensor.Tensor]*tensor.Tensor{}}
}

// Step applies one update to every parameter from its accumulated gradient
// scaled by 1/batchSize (a nil gradient counts as zero), then clears the
// gradients. It re-derives each parameter's float32 copy from its
// updated master.
func (o *SGD) Step(params []Param, batchSize int) {
	if o.velocity == nil {
		o.velocity = map[*tensor.Tensor]*tensor.Tensor{}
	}
	inv := 1.0 / float64(batchSize)
	for _, p := range params {
		v, ok := o.velocity[p.Value]
		if !ok {
			v = tensor.New(p.Value.Shape()...)
			o.velocity[p.Value] = v
		}
		vd, wd := v.Data(), p.Value.Data()
		var gd []float64
		if p.Grad != nil {
			gd = p.Grad.Data()
		}
		for i := range vd {
			g := o.WeightDecay * wd[i]
			if gd != nil {
				g = gd[i]*inv + o.WeightDecay*wd[i]
			}
			vd[i] = o.Momentum*vd[i] - o.LR*g
			wd[i] += vd[i]
		}
		p.w.sync()
		if p.Grad != nil {
			p.Grad.Zero()
		}
	}
}

// TrainConfig controls a training run.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	// LRDecay multiplies the learning rate after each epoch (1 = constant).
	LRDecay     float64
	Momentum    float64
	WeightDecay float64
	// Seed drives shuffling.
	Seed uint64
	// Log, when non-nil, receives one line per epoch.
	Log io.Writer
}

// EpochStats summarizes one training epoch.
type EpochStats struct {
	Epoch    int
	Loss     float64
	Accuracy float64
}

// Train runs mini-batch SGD over the samples and returns per-epoch stats.
// The gradients and backward caches it uses are dropped when it returns,
// so a trained network holds no more than a loaded one.
func Train(net *Network, samples []Sample, cfg TrainConfig) []EpochStats {
	defer net.release()
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	if cfg.LRDecay == 0 {
		cfg.LRDecay = 1
	}
	opt := NewSGD(cfg.LR)
	if cfg.Momentum != 0 {
		opt.Momentum = cfg.Momentum
	}
	opt.WeightDecay = cfg.WeightDecay
	r := rng.New(cfg.Seed)
	params := net.trainParams()
	var stats []EpochStats
	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		r.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		totalLoss, correct := 0.0, 0
		for start := 0; start < len(idx); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			for _, si := range idx[start:end] {
				s := samples[si]
				loss, pred := net.TrainStep(s.Input, s.Label)
				totalLoss += loss
				if pred == s.Label {
					correct++
				}
			}
			opt.Step(params, end-start)
		}
		st := EpochStats{
			Epoch:    epoch,
			Loss:     totalLoss / float64(len(samples)),
			Accuracy: float64(correct) / float64(len(samples)),
		}
		stats = append(stats, st)
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "epoch %2d  loss %.4f  acc %.2f%%\n",
				st.Epoch, st.Loss, 100*st.Accuracy)
		}
		opt.LR *= cfg.LRDecay
	}
	return stats
}

// Accuracy evaluates the fraction of samples the network classifies
// correctly, on the batched inference path.
func Accuracy(net *Network, samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	correct := 0
	net.Observe(samples, -1, func(i, pred int, _ []float64) {
		if pred == samples[i].Label {
			correct++
		}
	})
	return float64(correct) / float64(len(samples))
}
