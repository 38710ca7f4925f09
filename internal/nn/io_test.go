package nn

import (
	"bytes"
	"path/filepath"
	"testing"

	"napmon/internal/rng"
)

func TestSaveLoadFile(t *testing.T) {
	r := rng.New(1)
	net := New(NewDense(4, 6, r), NewReLU(), NewDense(6, 2, r))
	x := randInput(rng.New(2), 4)
	want := net.Forward(x)

	path := filepath.Join(t.TempDir(), "net.model")
	if err := net.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := loaded.Forward(x)
	for i := range want.Data() {
		if want.Data()[i] != got.Data()[i] {
			t.Fatal("file round trip changed outputs")
		}
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "nope.model")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestLoadTruncatedModel(t *testing.T) {
	r := rng.New(3)
	net := New(NewDense(8, 8, r), NewReLU(), NewDense(8, 3, r))
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{0, 10, len(full) / 2, len(full) - 1} {
		if _, err := Load(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestSGDWeightDecayShrinksWeights(t *testing.T) {
	r := rng.New(4)
	d := NewDense(4, 4, r)
	opt := NewSGD(0.1)
	opt.Momentum = 0
	opt.WeightDecay = 0.5
	before := d.w.v.Clone()
	// Zero gradients: the update is pure decay.
	opt.Step(d.Params(), 1)
	for i, v := range d.w.v.Data() {
		want := before.Data()[i] * (1 - 0.1*0.5)
		if diff := v - want; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("weight %d: got %v, want %v", i, v, want)
		}
	}
}

func TestTrainLRDecayApplied(t *testing.T) {
	r := rng.New(5)
	var samples []Sample
	for i := 0; i < 32; i++ {
		samples = append(samples, Sample{Input: randInput(r, 3), Label: i % 2})
	}
	net := New(NewDense(3, 4, r), NewReLU(), NewDense(4, 2, r))
	// Smoke test: decaying LR must not blow up or error.
	stats := Train(net, samples, TrainConfig{Epochs: 3, BatchSize: 8, LR: 0.1, LRDecay: 0.5, Seed: 6})
	if len(stats) != 3 {
		t.Fatalf("got %d epochs", len(stats))
	}
}

func TestObserveSingleSample(t *testing.T) {
	r := rng.New(7)
	net := New(NewDense(2, 3, r), NewReLU(), NewDense(3, 2, r))
	s := Sample{Input: randInput(r, 2)}
	visits := 0
	net.Observe([]Sample{s}, -1, func(i, pred int, acts []float64) {
		visits++
		if i != 0 || pred != net.Predict(s.Input) || acts != nil {
			t.Fatalf("visit(%d, %d, %v), want (0, %d, nil)", i, pred, acts, net.Predict(s.Input))
		}
	})
	if visits != 1 {
		t.Fatalf("got %d visits", visits)
	}
}

func TestAccuracyEmpty(t *testing.T) {
	r := rng.New(9)
	net := New(NewDense(2, 2, r))
	if Accuracy(net, nil) != 0 {
		t.Fatal("Accuracy of empty set must be 0")
	}
}
