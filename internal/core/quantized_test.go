package core

import (
	"testing"

	"napmon/internal/nn"
)

func buildQuantized(t *testing.T, net *nn.Network, train []nn.Sample, layer int, cfg QuantizedConfig) *QuantizedMonitor {
	t.Helper()
	cfg.Layer = layer
	m, err := BuildQuantized(net, train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestQuantizedSoundness(t *testing.T) {
	net, layer, train, _ := trainedToyNet(t, 40)
	for _, levels := range []int{2, 3, 4} {
		m := buildQuantized(t, net, train, layer, QuantizedConfig{Levels: levels})
		for _, s := range train {
			v := m.Watch(net, s.Input)
			if v.Class == s.Label && v.OutOfPattern {
				t.Fatalf("levels=%d: correctly classified training sample flagged", levels)
			}
		}
	}
}

func TestQuantizedTwoLevelsMatchesBinary(t *testing.T) {
	// Levels=2 with threshold 0 is exactly the paper's binary pattern
	// monitor: verdicts must agree with Build at the same gamma.
	net, layer, train, val := trainedToyNet(t, 41)
	q := buildQuantized(t, net, train, layer, QuantizedConfig{Levels: 2, Gamma: 1})
	b, err := Build(net, train, Config{Layer: layer, Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range val {
		vq := q.Watch(net, s.Input)
		vb := b.Watch(net, s.Input)
		if vq.OutOfPattern != vb.OutOfPattern {
			t.Fatal("2-level quantized monitor disagrees with binary monitor")
		}
	}
}

func TestQuantizedFinerThanBinary(t *testing.T) {
	// More levels can only add flags at gamma 0: every input rejected by
	// the binary monitor shows an unseen on/off projection, which implies
	// an unseen thermometer pattern.
	net, layer, train, val := trainedToyNet(t, 42)
	q := buildQuantized(t, net, train, layer, QuantizedConfig{Levels: 4, Gamma: 0})
	b, err := Build(net, train, Config{Layer: layer, Gamma: 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range val {
		if b.Watch(net, s.Input).OutOfPattern && !q.Watch(net, s.Input).OutOfPattern {
			t.Fatal("quantized monitor accepted a pattern the binary monitor rejects")
		}
	}
}

func TestQuantizedThresholdsAscending(t *testing.T) {
	net, layer, train, _ := trainedToyNet(t, 43)
	m := buildQuantized(t, net, train, layer, QuantizedConfig{Levels: 4})
	for i := range m.Neurons() {
		ts := m.Thresholds(i)
		if len(ts) != 3 {
			t.Fatalf("neuron %d has %d thresholds, want 3", i, len(ts))
		}
		if ts[0] != 0 {
			t.Fatalf("first threshold must be the ReLU boundary, got %v", ts[0])
		}
		for j := 1; j < len(ts); j++ {
			if ts[j] <= ts[j-1] {
				t.Fatalf("thresholds not ascending: %v", ts)
			}
		}
	}
}

func TestQuantizedGammaMonotone(t *testing.T) {
	net, layer, train, val := trainedToyNet(t, 44)
	m := buildQuantized(t, net, train, layer, QuantizedConfig{Levels: 3, Gamma: 3})
	prev := -1
	for g := 0; g <= 3; g++ {
		met, err := EvaluateQuantizedAt(net, m, val, g)
		if err != nil {
			t.Fatal(err)
		}
		got := met.OutOfPattern
		if prev >= 0 && got > prev {
			t.Fatalf("flags increased with gamma: %d -> %d", prev, got)
		}
		prev = got
	}
}

func TestQuantizedZoneWidth(t *testing.T) {
	net, layer, train, _ := trainedToyNet(t, 45)
	m := buildQuantized(t, net, train, layer, QuantizedConfig{Levels: 4, Neurons: []int{0, 1, 2}})
	if got := m.Zone(0).Width(); got != 9 { // 3 neurons × (4-1) bits
		t.Fatalf("zone width = %d, want 9", got)
	}
}

func TestQuantizedRejectsBadLevels(t *testing.T) {
	net, layer, train, _ := trainedToyNet(t, 46)
	if _, err := BuildQuantized(net, train, QuantizedConfig{Layer: layer, Levels: 1}); err == nil {
		t.Fatal("Levels=1 accepted")
	}
	if _, err := BuildQuantized(net, nil, QuantizedConfig{Layer: layer, Levels: 2}); err == nil {
		t.Fatal("empty training set accepted")
	}
}

func TestQuantizedEvaluateConsistentWithWatch(t *testing.T) {
	net, layer, train, val := trainedToyNet(t, 47)
	m := buildQuantized(t, net, train, layer, QuantizedConfig{Levels: 3, Gamma: 1})
	want := Metrics{Total: len(val)}
	for _, s := range val {
		v := m.Watch(net, s.Input)
		mis := v.Class != s.Label
		if mis {
			want.Misclassified++
		}
		if v.Monitored {
			want.Watched++
			if v.OutOfPattern {
				want.OutOfPattern++
				if mis {
					want.OutOfPatternMisclassified++
				}
			}
		}
	}
	if got := EvaluateQuantized(net, m, val); got != want {
		t.Fatalf("EvaluateQuantized = %+v, want %+v", got, want)
	}
}

func TestThermometerEncoding(t *testing.T) {
	net, layer, train, _ := trainedToyNet(t, 48)
	m := buildQuantized(t, net, train, layer, QuantizedConfig{Levels: 4, Neurons: []int{0, 1}})
	// Level of a very negative value is 0; of a huge value is 3.
	if got := m.level(0, -5); got != 0 {
		t.Fatalf("level(-5) = %d", got)
	}
	if got := m.level(0, 1e12); got != 3 {
		t.Fatalf("level(huge) = %d", got)
	}
	p := m.encode([]float64{-1, 1e12})
	want := Pattern{false, false, false, true, true, true}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("encode = %v, want %v", p, want)
		}
	}
}
