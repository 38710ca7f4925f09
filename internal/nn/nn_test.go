package nn

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"napmon/internal/rng"
	"napmon/internal/tensor"
)

func randInput(r *rng.Source, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	for i := range t.Data() {
		t.Data()[i] = r.Range(-1, 1)
	}
	return t
}

// lossOf runs a forward pass and returns the cross-entropy loss, used as
// the scalar function for finite-difference checks.
func lossOf(net *Network, x *tensor.Tensor, label int) float64 {
	logits := net.forward(x, false)
	loss, _ := SoftmaxCrossEntropy(logits, label)
	return loss
}

// checkParamGradients verifies every parameter gradient of net against a
// central finite difference of the loss.
func checkParamGradients(t *testing.T, net *Network, x *tensor.Tensor, label int, tol float64) {
	t.Helper()
	net.ZeroGrads()
	net.TrainStep(x, label)
	const eps = 1e-6
	for _, p := range net.Params() {
		data := p.Value.Data()
		grad := p.Grad.Data()
		// Sample a few indices per parameter to keep the test fast.
		step := len(data)/7 + 1
		for i := 0; i < len(data); i += step {
			orig := data[i]
			data[i] = orig + eps
			up := lossOf(net, x, label)
			data[i] = orig - eps
			down := lossOf(net, x, label)
			data[i] = orig
			want := (up - down) / (2 * eps)
			if math.Abs(grad[i]-want) > tol*(1+math.Abs(want)) {
				t.Fatalf("%s grad[%d] = %v, finite diff = %v", p.Name, i, grad[i], want)
			}
		}
	}
}

func TestDenseForward(t *testing.T) {
	r := rng.New(1)
	d := NewDense(3, 2, r)
	copy(d.w.v.Data(), []float64{1, 2, 3, 4, 5, 6})
	copy(d.b.v.Data(), []float64{0.5, -0.5})
	y := d.Forward(tensor.FromSlice([]float64{1, 0, -1}, 3), false)
	if y.Data()[0] != 1+0-3+0.5 || y.Data()[1] != 4+0-6-0.5 {
		t.Fatalf("Dense forward = %v", y.Data())
	}
}

func TestDenseGradients(t *testing.T) {
	r := rng.New(2)
	net := New(NewDense(6, 5, r), NewReLU(), NewDense(5, 3, r))
	checkParamGradients(t, net, randInput(r, 6), 1, 1e-4)
}

func TestReLUForward(t *testing.T) {
	l := NewReLU()
	y := l.Forward(tensor.FromSlice([]float64{-1, 0, 2.5}, 3), false)
	want := []float64{0, 0, 2.5}
	for i, w := range want {
		if y.Data()[i] != w {
			t.Fatalf("ReLU = %v", y.Data())
		}
	}
}

func TestReLUBackwardMask(t *testing.T) {
	l := NewReLU()
	l.Forward(tensor.FromSlice([]float64{-1, 3}, 2), true)
	g := l.Backward(tensor.FromSlice([]float64{5, 7}, 2))
	if g.Data()[0] != 0 || g.Data()[1] != 7 {
		t.Fatalf("ReLU backward = %v", g.Data())
	}
}

func TestConvGradients(t *testing.T) {
	r := rng.New(3)
	net := New(
		NewConv2D(2, 1, 3, 3, 1, r),
		NewReLU(),
		NewFlatten(),
		NewDense(2*4*4, 3, r),
	)
	checkParamGradients(t, net, randInput(r, 1, 6, 6), 2, 1e-4)
}

func TestConvInputGradient(t *testing.T) {
	// Check d loss / d input through a conv by finite differences.
	r := rng.New(4)
	conv := NewConv2D(2, 1, 3, 3, 1, r)
	net := New(conv, NewFlatten(), NewDense(2*3*3, 2, r))
	x := randInput(r, 1, 5, 5)
	net.ZeroGrads()

	logits := net.forward(x, true)
	_, grad := SoftmaxCrossEntropy(logits, 0)
	g := grad
	for i := net.NumLayers() - 1; i >= 0; i-- {
		g = net.Layer(i).Backward(g)
	}
	const eps = 1e-6
	for _, i := range []int{0, 7, 13, 24} {
		orig := x.Data()[i]
		x.Data()[i] = orig + eps
		up := lossOf(net, x, 0)
		x.Data()[i] = orig - eps
		down := lossOf(net, x, 0)
		x.Data()[i] = orig
		want := (up - down) / (2 * eps)
		if math.Abs(g.Data()[i]-want) > 1e-4*(1+math.Abs(want)) {
			t.Fatalf("input grad[%d] = %v, finite diff %v", i, g.Data()[i], want)
		}
	}
}

// TestConv2DMatchesNaive checks the convolution that trains, the layer's
// float64 Forward (im2col + MatMul + bias), against the direct four-loop
// tensor.Conv2DNaive.
func TestConv2DMatchesNaive(t *testing.T) {
	r := rng.New(7)
	for _, tc := range []struct{ inC, inH, inW, outC, k, stride int }{
		{1, 8, 8, 3, 3, 1},
		{2, 9, 7, 4, 3, 2},
		{3, 12, 12, 5, 5, 1},
		{1, 5, 5, 1, 5, 1},
		{4, 10, 10, 2, 2, 2},
	} {
		c := NewConv2D(tc.outC, tc.inC, tc.k, tc.k, tc.stride, r)
		for i := range c.b.v.Data() {
			c.b.v.Data()[i] = r.Range(-1, 1)
		}
		x := randInput(r, tc.inC, tc.inH, tc.inW)
		convClose(t, c.Forward(x, false), tensor.Conv2DNaive(x, c.w.v, c.b.v.Data(), tc.stride))
	}
}

// TestConv2DNilBias checks a fresh layer, whose bias is zero, against
// the reference without a bias.
func TestConv2DNilBias(t *testing.T) {
	r := rng.New(8)
	c := NewConv2D(3, 2, 3, 3, 1, r)
	x := randInput(r, 2, 6, 6)
	convClose(t, c.Forward(x, false), tensor.Conv2DNaive(x, c.w.v, nil, 1))
}

func convClose(t *testing.T, got, want *tensor.Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("shape %v, want %v", got.Shape(), want.Shape())
	}
	for i, w := range want.Data() {
		if math.Abs(got.Data()[i]-w) > 1e-10 {
			t.Fatalf("elem %d: got %v, want %v", i, got.Data()[i], w)
		}
	}
}

func TestMaxPoolGradients(t *testing.T) {
	r := rng.New(5)
	net := New(
		NewConv2D(2, 1, 3, 3, 1, r),
		NewMaxPool(2),
		NewFlatten(),
		NewDense(2*3*3, 2, r),
	)
	checkParamGradients(t, net, randInput(r, 1, 8, 8), 1, 1e-4)
}

func TestBatchNormGradients(t *testing.T) {
	r := rng.New(6)
	net := New(
		NewConv2D(3, 1, 3, 3, 1, r),
		NewBatchNorm(3),
		NewReLU(),
		NewFlatten(),
		NewDense(3*4*4, 2, r),
	)
	x := randInput(r, 1, 6, 6)
	// Warm the running statistics, then freeze behaviour is consistent.
	for i := 0; i < 5; i++ {
		net.forward(x, true)
	}
	checkParamGradients(t, net, x, 1, 1e-3)
}

func TestBatchNormNormalizes(t *testing.T) {
	r := rng.New(7)
	bn := NewBatchNorm(1)
	x := tensor.New(1, 4, 4)
	for i := range x.Data() {
		x.Data()[i] = r.NormScaled(5, 2)
	}
	// Drive running stats toward the sample stats.
	for i := 0; i < 200; i++ {
		bn.Forward(x, true)
	}
	y := bn.Forward(x, false)
	mean := y.Sum() / float64(y.Len())
	if math.Abs(mean) > 0.05 {
		t.Fatalf("BatchNorm output mean = %v, want about 0", mean)
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	l := NewFlatten()
	x := randInput(rng.New(8), 2, 3, 4)
	y := l.Forward(x, true)
	if y.Rank() != 1 || y.Len() != 24 {
		t.Fatalf("Flatten shape = %v", y.Shape())
	}
	g := l.Backward(y)
	if !g.SameShape(x) {
		t.Fatalf("Flatten backward shape = %v", g.Shape())
	}
}

func TestSoftmaxProperties(t *testing.T) {
	logits := tensor.FromSlice([]float64{1, 2, 3}, 3)
	p := Softmax(logits)
	sum := 0.0
	for _, v := range p {
		if v <= 0 || v >= 1 {
			t.Fatalf("softmax value out of (0,1): %v", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("softmax sums to %v", sum)
	}
	if !(p[2] > p[1] && p[1] > p[0]) {
		t.Fatal("softmax not order preserving")
	}
}

func TestSoftmaxStability(t *testing.T) {
	logits := tensor.FromSlice([]float64{1000, 1001, 999}, 3)
	p := Softmax(logits)
	for _, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("softmax overflowed: %v", p)
		}
	}
}

func TestCrossEntropyGradient(t *testing.T) {
	logits := tensor.FromSlice([]float64{0.5, -0.2, 1.0}, 3)
	_, grad := SoftmaxCrossEntropy(logits, 2)
	p := Softmax(logits)
	for i := range p {
		want := p[i]
		if i == 2 {
			want -= 1
		}
		if math.Abs(grad.Data()[i]-want) > 1e-12 {
			t.Fatalf("CE grad[%d] = %v, want %v", i, grad.Data()[i], want)
		}
	}
}

func TestTrainLearnsSeparableProblem(t *testing.T) {
	// Two Gaussian blobs in 4-D must be learnable to high accuracy.
	r := rng.New(9)
	var samples []Sample
	for i := 0; i < 400; i++ {
		label := i % 2
		x := tensor.New(4)
		for j := range x.Data() {
			center := -1.0
			if label == 1 {
				center = 1.0
			}
			x.Data()[j] = r.NormScaled(center, 0.5)
		}
		samples = append(samples, Sample{Input: x, Label: label})
	}
	net := New(NewDense(4, 8, r), NewReLU(), NewDense(8, 2, r))
	stats := Train(net, samples, TrainConfig{Epochs: 10, BatchSize: 16, LR: 0.05, Seed: 1})
	last := stats[len(stats)-1]
	if last.Accuracy < 0.97 {
		t.Fatalf("final train accuracy = %v, want >= 0.97", last.Accuracy)
	}
	if last.Loss >= stats[0].Loss {
		t.Fatalf("loss did not decrease: %v -> %v", stats[0].Loss, last.Loss)
	}
	if acc := Accuracy(net, samples); acc < 0.97 {
		t.Fatalf("Accuracy() = %v, want >= 0.97", acc)
	}
}

func TestTrainXOR(t *testing.T) {
	// XOR requires the hidden layer, so this catches broken backprop.
	r := rng.New(10)
	var samples []Sample
	pts := [][2]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	for rep := 0; rep < 50; rep++ {
		for _, p := range pts {
			label := 0
			if (p[0] > 0.5) != (p[1] > 0.5) {
				label = 1
			}
			x := tensor.FromSlice([]float64{p[0] + r.NormScaled(0, 0.05), p[1] + r.NormScaled(0, 0.05)}, 2)
			samples = append(samples, Sample{Input: x, Label: label})
		}
	}
	net := New(NewDense(2, 12, r), NewReLU(), NewDense(12, 2, r))
	stats := Train(net, samples, TrainConfig{Epochs: 60, BatchSize: 8, LR: 0.1, Seed: 2})
	if acc := stats[len(stats)-1].Accuracy; acc < 0.95 {
		t.Fatalf("XOR accuracy = %v, want >= 0.95", acc)
	}
}

func TestForwardCapture(t *testing.T) {
	r := rng.New(11)
	net := New(NewDense(4, 6, r), NewReLU(), NewDense(6, 3, r))
	x := randInput(r, 4)
	logits, captured := net.ForwardCapture(x, 1)
	if captured.Len() != 6 {
		t.Fatalf("captured %d elements, want 6", captured.Len())
	}
	for _, v := range captured.Data() {
		if v < 0 {
			t.Fatal("captured ReLU output has negative value")
		}
	}
	plain := net.Forward(x)
	for i := range plain.Data() {
		if plain.Data()[i] != logits.Data()[i] {
			t.Fatal("ForwardCapture changed the logits")
		}
	}
}

func TestGradientAtLayerMatchesWeights(t *testing.T) {
	// Paper's special case: monitoring the layer immediately before a
	// linear output layer, the gradient ∂n_c/∂n_i equals the connecting
	// weight W[c][i] wherever the monitored activation is positive... but
	// since we take the gradient at the *output of the ReLU'd layer*, it
	// is exactly the weight row regardless of sign.
	r := rng.New(12)
	hidden := NewDense(5, 4, r)
	out := NewDense(4, 3, r)
	net := New(hidden, NewReLU(), out)
	x := randInput(r, 5)
	const class = 2
	g := net.GradientAtLayer(x, class, 1) // gradient at ReLU output
	for i := 0; i < 4; i++ {
		want := out.Weights().At(class, i)
		if math.Abs(g.Data()[i]-want) > 1e-12 {
			t.Fatalf("gradient[%d] = %v, want weight %v", i, g.Data()[i], want)
		}
	}
}

func TestGradientAtLayerFiniteDiff(t *testing.T) {
	// General case: two layers above the monitored one.
	r := rng.New(13)
	net := New(NewDense(4, 6, r), NewReLU(), NewDense(6, 5, r), NewReLU(), NewDense(5, 3, r))
	x := randInput(r, 4)
	const class, layer = 1, 1
	g := net.GradientAtLayer(x, class, layer)

	// Finite difference: perturb the captured activation by re-running the
	// tail of the network manually.
	tail := func(h *tensor.Tensor) float64 {
		y := h
		for i := layer + 1; i < net.NumLayers(); i++ {
			y = net.Layer(i).Forward(y, false)
		}
		return y.Data()[class]
	}
	_, captured := net.ForwardCapture(x, layer)
	const eps = 1e-6
	for i := 0; i < captured.Len(); i++ {
		h := captured.Clone()
		h.Data()[i] += eps
		up := tail(h)
		h.Data()[i] -= 2 * eps
		down := tail(h)
		want := (up - down) / (2 * eps)
		if math.Abs(g.Data()[i]-want) > 1e-5*(1+math.Abs(want)) {
			t.Fatalf("gradient[%d] = %v, finite diff %v", i, g.Data()[i], want)
		}
	}
}

func TestBuildFromSpecs(t *testing.T) {
	specs := []Spec{
		{Kind: KindConv, Out: 4, InC: 1, KH: 3, KW: 3, Stride: 1},
		{Kind: KindBN, Ch: 4},
		{Kind: KindReLU},
		{Kind: KindMaxPool, Size: 2},
		{Kind: KindFlatten},
		{Kind: KindDense, In: 4 * 3 * 3, Out: 5},
	}
	net, err := Build(specs, rng.New(14))
	if err != nil {
		t.Fatal(err)
	}
	y := net.Forward(randInput(rng.New(15), 1, 8, 8))
	if y.Len() != 5 {
		t.Fatalf("output length = %d, want 5", y.Len())
	}
	got := net.Specs()
	for i := range specs {
		if got[i] != specs[i] {
			t.Fatalf("spec %d round-trip: %+v != %+v", i, got[i], specs[i])
		}
	}
}

func TestBuildRejectsUnknownKind(t *testing.T) {
	if _, err := Build([]Spec{{Kind: "transformer"}}, rng.New(1)); err == nil {
		t.Fatal("expected error for unknown layer kind")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	r := rng.New(16)
	net := New(
		NewConv2D(3, 1, 3, 3, 1, r),
		NewBatchNorm(3),
		NewReLU(),
		NewMaxPool(2),
		NewFlatten(),
		NewDense(3*3*3, 4, r),
	)
	x := randInput(r, 1, 8, 8)
	// Give BN non-trivial running stats.
	net.forward(x, true)
	want := net.Forward(x)

	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := loaded.Forward(x)
	for i := range want.Data() {
		if want.Data()[i] != got.Data()[i] {
			t.Fatalf("logit %d differs after round trip: %v vs %v",
				i, want.Data()[i], got.Data()[i])
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a model\n"))); err == nil {
		t.Fatal("expected error")
	}
}

func TestCloneSharedConcurrentInference(t *testing.T) {
	r := rng.New(17)
	net := New(NewDense(8, 16, r), NewReLU(), NewDense(16, 4, r))
	var samples []Sample
	for i := 0; i < 200; i++ {
		samples = append(samples, Sample{Input: randInput(r, 8), Label: i % 4})
	}
	// Sequential reference.
	want := make([]int, len(samples))
	for i, s := range samples {
		want[i] = net.Predict(s.Input)
	}
	got := make([]int, len(samples))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			clone := net.CloneShared()
			for i := g; i < len(samples); i += 4 {
				got[i] = clone.Predict(samples[i].Input)
			}
		}()
	}
	wg.Wait()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parallel prediction %d = %d, sequential = %d", i, got[i], want[i])
		}
	}
}

// TestAccuracyMatchesSequential pins the batched evaluation count against
// the per-sample Predict loop, across a chunk boundary.
func TestAccuracyMatchesSequential(t *testing.T) {
	r := rng.New(18)
	net := New(NewDense(4, 8, r), NewReLU(), NewDense(8, 2, r))
	var samples []Sample
	for i := 0; i < 101; i++ {
		samples = append(samples, Sample{Input: randInput(r, 4), Label: i % 2})
	}
	seq := 0
	for _, s := range samples {
		if net.Predict(s.Input) == s.Label {
			seq++
		}
	}
	if got := Accuracy(net, samples); got != float64(seq)/float64(len(samples)) {
		t.Fatalf("Accuracy = %v, sequential count = %d of %d", got, seq, len(samples))
	}
}

func TestNetworkString(t *testing.T) {
	r := rng.New(19)
	net := New(NewConv2D(40, 1, 5, 5, 1, r), NewReLU(), NewMaxPool(2))
	if s := net.String(); s != "conv(40), relu, maxpool(2)" {
		t.Fatalf("String() = %q", s)
	}
}

func BenchmarkForwardMNISTArch(b *testing.B) {
	r := rng.New(1)
	net := New(
		NewConv2D(40, 1, 5, 5, 1, r), NewReLU(), NewMaxPool(2),
		NewConv2D(20, 40, 5, 5, 1, r), NewReLU(), NewMaxPool(2),
		NewFlatten(),
		NewDense(320, 320, r), NewReLU(),
		NewDense(320, 160, r), NewReLU(),
		NewDense(160, 80, r), NewReLU(),
		NewDense(80, 40, r), NewReLU(),
		NewDense(40, 10, r),
	)
	x := randInput(r, 1, 28, 28)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(x)
	}
}

func BenchmarkTrainStepMNISTArch(b *testing.B) {
	r := rng.New(1)
	net := New(
		NewConv2D(40, 1, 5, 5, 1, r), NewReLU(), NewMaxPool(2),
		NewConv2D(20, 40, 5, 5, 1, r), NewReLU(), NewMaxPool(2),
		NewFlatten(),
		NewDense(320, 320, r), NewReLU(),
		NewDense(320, 160, r), NewReLU(),
		NewDense(160, 80, r), NewReLU(),
		NewDense(80, 40, r), NewReLU(),
		NewDense(40, 10, r),
	)
	x := randInput(r, 1, 28, 28)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.TrainStep(x, i%10)
	}
}
