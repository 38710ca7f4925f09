package tensor_test

import (
	"testing"

	"napmon/internal/exp"
	"napmon/internal/nn"
	"napmon/internal/rng"
	"napmon/internal/tensor"
)

// mnistPass runs one width-wide ForwardBatchCapture pass of the paper's
// network 1 on pool and hands both results back, as a serving lane does.
func mnistPass(net *nn.Network, capture int, inputs []*tensor.Tensor, width int, pool *tensor.Pool) {
	logits, acts := net.ForwardBatchCapture(inputs[:width], capture, pool)
	pool.Put(logits)
	pool.Put(acts)
}

func mnistNet(t *testing.T) (*nn.Network, int, []*tensor.Tensor) {
	t.Helper()
	specs, capture := exp.MNISTNetSpecs()
	r := rng.New(17)
	net, err := nn.Build(specs, r)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]*tensor.Tensor, 64)
	for i := range inputs {
		inputs[i] = tensor.New(1, 28, 28)
		for j := range inputs[i].Data() {
			inputs[i].Data()[j] = r.NormScaled(0, 1)
		}
	}
	return net, capture, inputs
}

// TestPoolNoMissesAfterWidestPass pins the lane-scratch contract under
// the variable batch widths natural batching forms: once the pool has
// served one pass at the widest width, passes of any narrower width —
// in any order — allocate nothing.
func TestPoolNoMissesAfterWidestPass(t *testing.T) {
	net, capture, inputs := mnistNet(t)
	pool := tensor.NewPool()
	mnistPass(net, capture, inputs, 64, pool)
	_, warm := pool.Stats()
	r := rng.New(99)
	for pass := 0; pass < 400; pass++ {
		width := 1 + int(r.Uint64()%64)
		mnistPass(net, capture, inputs, width, pool)
		if _, misses := pool.Stats(); misses != warm {
			t.Fatalf("pass %d (width %d) allocated: misses %d → %d", pass, width, warm, misses)
		}
	}
}

// TestPoolHoldsOneWorkingSet grows the width one input at a time — the
// worst case for a pool keyed by exact size, which would keep all 64
// working sets. However the widths arrive, the pool parks one working
// set: no more buffers than a pass has live at once, none larger than
// the largest a cold width-64 pass leaves behind.
func TestPoolHoldsOneWorkingSet(t *testing.T) {
	net, capture, inputs := mnistNet(t)
	widest := tensor.NewPool()
	mnistPass(net, capture, inputs, 64, widest)
	want := widest.FreeBytes()

	pool := tensor.NewPool()
	for width := 1; width <= 64; width++ {
		mnistPass(net, capture, inputs, width, pool)
		got := pool.FreeBytes()
		if len(got) > len(want) || got[len(got)-1] > want[len(want)-1] {
			t.Fatalf("after width %d the pool parks %v, more than the one working set %v a cold width-64 pass leaves",
				width, got, want)
		}
	}
}

// TestForwardBatchWorkingSet pins the memory side of the stripe-fused
// convolution, which the benchmark cannot see (it reads live_heap_mb with
// the servers down): after full-chunk passes of network 1 a lane's pool
// parks a few float32 activation maps — 1.6 MB — not the 32.8 MB im2col
// matrix and 11.8 MB product of a float64 whole-batch lowering (40.8 MB
// parked), and a warm pass allocates nothing.
func TestForwardBatchWorkingSet(t *testing.T) {
	net, capture, inputs := mnistNet(t)
	pool := tensor.NewPool()
	mnistPass(net, capture, inputs, 64, pool)
	_, warm := pool.Stats()
	mnistPass(net, capture, inputs, 64, pool)
	mnistPass(net, capture, inputs, 64, pool)
	if _, misses := pool.Stats(); misses != warm {
		t.Fatalf("warm passes allocated: misses %d → %d", warm, misses)
	}
	parked := 0
	for _, c := range pool.FreeBytes() {
		parked += c
	}
	if parked >= 8<<20 {
		t.Fatalf("pool parks %.1f MB after 64-wide passes, want under 8 MB", float64(parked)/(1<<20))
	}
}
