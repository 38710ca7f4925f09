package nn

import (
	"bytes"
	"fmt"
	"testing"

	"napmon/internal/rng"
	"napmon/internal/tensor"
)

// trainingSamples returns n random labelled inputs for randConvNet.
func trainingSamples(r *rng.Source, n int) []Sample {
	samples := make([]Sample, n)
	for i := range samples {
		samples[i] = Sample{Input: randInput(r, 2, 12, 12), Label: i % 4}
	}
	return samples
}

// checkCopies demands that every array a model file carries has a
// float32 copy equal to float32(master) element for element, and that a
// batched pass equals the width-1 pass over each of its inputs.
func checkCopies(t *testing.T, tag string, net *Network, inputs []*tensor.Tensor) {
	t.Helper()
	for _, w := range net.persisted() {
		for i, v := range w.v.Data() {
			if got := w.f32.Data()[i]; got != float32(v) {
				t.Fatalf("%s: %v element %d: float32 copy %v, master %v", tag, w.v.Shape(), i, got, v)
			}
		}
	}
	batch := net.ForwardBatch(inputs, nil)
	for b, x := range inputs {
		one, _ := width1(net, x, -1)
		assertRowsEqual(t, tag, batch, b, one)
	}
}

// TestF32CopyFollowsWrites covers every writer of a weight master —
// initialization, nn.Train, a bare SGD.Step, nn.Load and a BatchNorm
// training-mode Forward — and checks after each that the float32 copies
// inference reads still equal the masters.
func TestF32CopyFollowsWrites(t *testing.T) {
	r := rng.New(61)
	net := randConvNet(r)
	inputs := []*tensor.Tensor{randInput(r, 2, 12, 12), randInput(r, 2, 12, 12), randInput(r, 2, 12, 12)}
	checkCopies(t, "init", net, inputs)

	Train(net, trainingSamples(r, 24), TrainConfig{Epochs: 2, BatchSize: 8, LR: 0.05, WeightDecay: 1e-3, Seed: 3})
	checkCopies(t, "Train", net, inputs)

	net.TrainStep(inputs[0], 1)
	opt := NewSGD(0.1)
	opt.WeightDecay = 0.01
	opt.Step(net.Params(), 1)
	checkCopies(t, "SGD.Step", net, inputs)

	bn := net.Layer(1).(*BatchNorm)
	before := bn.runMean.v.Clone()
	bn.Forward(randInput(r, 5, 10, 10), true)
	if bn.runMean.v.Data()[0] == before.Data()[0] {
		t.Fatal("a training-mode BatchNorm Forward left the running mean unchanged")
	}
	checkCopies(t, "BatchNorm Forward", net, inputs)

	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	checkCopies(t, "Load", loaded, inputs)
	assertRowsEqual(t, "Load", loaded.ForwardBatch(inputs, nil), 0, net.ForwardBatch(inputs, nil))
}

// TestCloneSharedSharesF32Copies checks that CloneShared replicas read
// the original's float32 arrays — the same first-element address — so N
// serving lanes add no weight memory.
func TestCloneSharedSharesF32Copies(t *testing.T) {
	net := randConvNet(rng.New(62))
	clone := net.CloneShared()
	orig, shared := net.persisted(), clone.persisted()
	for i, w := range orig {
		if &w.f32.Data()[0] != &shared[i].f32.Data()[0] || &w.v.Data()[0] != &shared[i].v.Data()[0] {
			t.Fatalf("array %d (%v): the clone holds its own copy", i, w.v.Shape())
		}
	}
}

// trainingState lists, per layer, what only training needs that the
// layer still holds.
func trainingState(net *Network) []string {
	var held []string
	for i, l := range net.layers {
		for _, p := range l.Params() {
			if p.Grad != nil {
				held = append(held, fmt.Sprintf("layer %d %s gradient", i, p.Name))
			}
		}
		var cache bool
		switch l := l.(type) {
		case *Conv2D:
			cache = l.lastCols != nil
		case *Dense:
			cache = l.lastIn != nil
		case *BatchNorm:
			cache = l.lastNorm != nil
		case *MaxPool:
			cache = l.argmax != nil
		case *ReLU:
			cache = l.mask != nil
		case *Flatten:
			cache = l.shape != nil
		}
		if cache {
			held = append(held, fmt.Sprintf("layer %d %s backward cache", i, l.Name()))
		}
	}
	return held
}

// TestTrainDropsTrainingState checks that gradients are allocated on
// first training-mode use only and that nothing training needs outlives
// Train — while GradientAtLayer (neuron selection), gradient checks and
// a second Train still work, and the saved model does not depend on
// whether that state is held.
func TestTrainDropsTrainingState(t *testing.T) {
	r := rng.New(63)
	net := randConvNet(r)
	if held := trainingState(net); len(held) != 0 {
		t.Fatalf("a fresh network holds %v", held)
	}
	samples := trainingSamples(r, 16)
	cfg := TrainConfig{Epochs: 1, BatchSize: 4, LR: 0.05, Seed: 5}
	Train(net, samples, cfg)
	if held := trainingState(net); len(held) != 0 {
		t.Fatalf("after Train the network still holds %v", held)
	}
	// Neuron selection backpropagates to a hidden layer and zeroes the
	// gradients it accumulated: that allocates training state again,
	// which must not reach the model file.
	for _, s := range samples[:3] {
		if g := net.GradientAtLayer(s.Input, s.Label, 5); g.Len() != 4*4*4 {
			t.Fatalf("GradientAtLayer returned %d values", g.Len())
		}
	}
	net.ZeroGrads()
	if len(trainingState(net)) == 0 {
		t.Fatal("GradientAtLayer and ZeroGrads allocated no training state")
	}
	var held, dropped bytes.Buffer
	if err := net.Save(&held); err != nil {
		t.Fatal(err)
	}
	net.release()
	if err := net.Save(&dropped); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(held.Bytes(), dropped.Bytes()) {
		t.Fatal("dropping gradients and caches changed the saved model")
	}

	checkParamGradients(t, net, samples[0].Input, samples[0].Label, 1e-4)
	Train(net, samples, cfg)
	if held := trainingState(net); len(held) != 0 {
		t.Fatalf("after a second Train the network still holds %v", held)
	}
	if acc := Accuracy(net, samples); acc < 0 || acc > 1 {
		t.Fatalf("accuracy %v after a second Train", acc)
	}
}
