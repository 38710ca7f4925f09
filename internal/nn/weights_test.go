package nn

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
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

// wantCopy spells a weight's float32 copy from its master, apart from
// the code under test: float32(master) element for element, or, for a
// dense layer's (n, k) matrix, tensor.PackPanels32's layout — per
// 256-wide block [pc, pc+kb) of k, starting at pc·n16 (n16 = n rounded
// up to 16), panel j/16 holds kb rows of 16 with W[j][pc+t] at row t,
// lane j%16, and the lanes past n are zero.
func wantCopy(w *weight) []float32 {
	v := w.v.Data()
	if !w.panels {
		want := make([]float32, len(v))
		for i, x := range v {
			want[i] = float32(x)
		}
		return want
	}
	n, k := w.v.Dim(0), w.v.Dim(1)
	n16 := (n + 15) / 16 * 16
	want := make([]float32, n16*k)
	for j := 0; j < n; j++ {
		for p := 0; p < k; p++ {
			pc := p / 256 * 256
			kb := min(256, k-pc)
			want[pc*n16+j/16*16*kb+(p-pc)*16+j%16] = float32(v[j*k+p])
		}
	}
	return want
}

// checkCopies demands that every array a model file carries has the
// float32 copy wantCopy spells — as panels for every Dense matrix — and
// that a batched pass equals the width-1 pass over each of its inputs.
func checkCopies(t *testing.T, tag string, net *Network, inputs []*tensor.Tensor) {
	t.Helper()
	for i, l := range net.layers {
		if d, ok := l.(*Dense); ok && !d.w.panels {
			t.Fatalf("%s: layer %d %s keeps its float32 matrix row-major", tag, i, d.Name())
		}
	}
	for _, w := range net.persisted() {
		want := wantCopy(w)
		if len(want) != w.f32.Len() {
			t.Fatalf("%s: %v: float32 copy of %d values, want %d", tag, w.v.Shape(), w.f32.Len(), len(want))
		}
		for i, v := range want {
			if got := w.f32.Data()[i]; math.Float32bits(got) != math.Float32bits(v) {
				t.Fatalf("%s: %v copy element %d: %v, want %v", tag, w.v.Shape(), i, got, v)
			}
		}
	}
	if inputs == nil {
		return
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
// serving lanes add no weight memory, and that those copies are what
// wantCopy spells, on network 1 too, whose 320-wide dense matrices
// cross a 256-wide k block.
func TestCloneSharedSharesF32Copies(t *testing.T) {
	net1, _, _ := tableINet(rng.New(62), 1)
	for _, net := range []*Network{randConvNet(rng.New(62)), net1} {
		clone := net.CloneShared()
		checkCopies(t, "CloneShared", clone, nil)
		orig, shared := net.persisted(), clone.persisted()
		for i, w := range orig {
			if &w.f32.Data()[0] != &shared[i].f32.Data()[0] || &w.v.Data()[0] != &shared[i].v.Data()[0] {
				t.Fatalf("array %d (%v): the clone holds its own copy", i, w.v.Shape())
			}
		}
	}
}

// TestF32CopiesCostHalfTheMasters bounds what network 1's weights cost
// beside their float64 masters: the float32 copies at most half the
// masters' bytes plus the zero padding of the dense matrices' last
// panels, and building the network allocates no more than masters,
// copies and a little slack. A second float32 copy of the dense
// matrices — row-major beside the panels — would add about a third of
// the masters and fail here.
func TestF32CopiesCostHalfTheMasters(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	net, _, _ := tableINet(rng.New(64), 1)
	runtime.ReadMemStats(&after)
	masters, copies, padding := 0, 0, 0
	for _, w := range net.persisted() {
		masters += 8 * w.v.Len()
		copies += 4 * w.f32.Len()
		if w.panels {
			n, k := w.v.Dim(0), w.v.Dim(1)
			padding += 4 * ((n+15)/16*16 - n) * k
		}
	}
	if copies > masters/2+padding {
		t.Fatalf("float32 copies take %d bytes, over half the masters' %d plus %d of padding", copies, masters, padding)
	}
	built := int(after.TotalAlloc - before.TotalAlloc)
	if limit := masters + masters/2 + padding + masters/20; built > limit {
		t.Fatalf("building network 1 allocated %d bytes, over %d (masters %d, copies %d)", built, limit, masters, copies)
	}
	t.Logf("masters %d B, float32 copies %d B (padding %d B), built with %d B", masters, copies, padding, built)
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
