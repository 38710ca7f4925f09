// Batched inference: every layer implements ForwardBatch over a stacked
// (B, per-sample shape...) float32 tensor, so a whole micro-batch flows
// through the network as a handful of large GEMMs instead of B small
// ones — dense layers become one tensor.DenseBatchInto product, conv
// layers one stripe-fused tensor.Conv2DBatchInto that never stores the
// im2col matrix — on the layers' float32 weight copies. The inputs are
// narrowed to float32 as they are stacked; only the captured layer and
// the logits are widened back to float64 for the caller. All activations
// come from a tensor.Pool, making the hot path allocation-free after
// warm-up; Dense+ReLU fuses into a GEMM whose micro kernels add the
// bias and clamp as they store the last k panel, and
// Conv+ReLU(+MaxPool 2) into the convolution's. Each output row is
// bit-identical to the width-1 pass over its input (the kernels keep one
// accumulation order whatever the batch width, kernel level or worker
// count) and within float32 rounding of the float64 per-sample Forward
// path, the oracle; the randomized tests in batch_test.go pin down both.
package nn

import (
	"fmt"
	"math"
	"sync"

	"napmon/internal/tensor"
)

// MaxChunk bounds how many inputs one ForwardBatch pass stacks together.
// It caps scratch memory — the widest intermediate of the Table I MNIST
// net is conv1's pooled map, 23 KB per input in float32 — while keeping GEMMs wide
// enough to saturate the kernels: at 64 samples a conv GEMM is already
// thousands of columns wide.
const MaxChunk = 64

// scratchPools recycles tensor.Pool instances across Observe calls. Each
// pool is owned by exactly one goroutine between Get and Put.
var scratchPools = sync.Pool{New: func() any { return tensor.NewPool() }}

// Observe is dataset-level inference: it feeds the samples' inputs
// through ForwardBatchCapture in chunks of at most MaxChunk on one
// recycled scratch pool and calls visit, in input order, with each
// sample's index, its decision (the argmax of its logits, ties to the
// lowest class) and its row of the output of layer capture. The row is
// only valid during the call; a negative capture skips it (nil row).
// Like ForwardBatch it touches no per-layer state, so concurrent calls
// on one network are safe; the cores are spent inside each layer.
func (n *Network) Observe(samples []Sample, capture int, visit func(i, pred int, captured []float64)) {
	pool := scratchPools.Get().(*tensor.Pool)
	defer scratchPools.Put(pool)
	var inputs [MaxChunk]*tensor.Tensor
	for lo := 0; lo < len(samples); lo += MaxChunk {
		b := min(MaxChunk, len(samples)-lo)
		for i, s := range samples[lo : lo+b] {
			inputs[i] = s.Input
		}
		logits, acts := n.forwardBatch(inputs[:b], capture, pool)
		nc := logits.Len() / b
		for i := 0; i < b; i++ {
			scores, pred := logits.Data()[i*nc:(i+1)*nc], 0
			for j, v := range scores {
				if v > scores[pred] {
					pred = j
				}
			}
			var row []float64
			if acts != nil {
				width := acts.Len() / b
				row = acts.Data()[i*width : (i+1)*width]
			}
			visit(lo+i, pred, row)
		}
		pool.Put(logits)
		pool.Put(acts)
	}
}

// ForwardBatch runs inference over the batch of inputs and returns the
// stacked logits of shape (B, classes), computed in float32 and widened.
// All inputs must share one shape. Unlike Forward it touches no
// per-layer state, so concurrent calls on the same network are safe;
// pool must be private to the caller (pass nil for a throwaway pool).
func (n *Network) ForwardBatch(inputs []*tensor.Tensor, pool *tensor.Pool) *tensor.Tensor {
	logits, _ := n.forwardBatch(inputs, -1, pool)
	return logits
}

// ForwardBatchCapture is ForwardBatch additionally returning the stacked
// output of the layer at index capture, shaped (B, layer output...).
// Neither returned tensor is retained by the network, and they never
// alias each other; callers owning the pool may Put both back when done.
func (n *Network) ForwardBatchCapture(inputs []*tensor.Tensor, capture int, pool *tensor.Pool) (logits, captured *tensor.Tensor) {
	if capture < 0 || capture >= len(n.layers) {
		panic(fmt.Sprintf("nn: capture index %d out of range [0,%d)", capture, len(n.layers)))
	}
	return n.forwardBatch(inputs, capture, pool)
}

// forwardBatch narrows the inputs into one pooled (B, sample...) float32
// tensor and walks the layers through their ForwardBatch
// implementations, recycling each intermediate as soon as the next
// layer has consumed it, then widens the logits and the captured layer.
// A Dense layer immediately followed by ReLU is fused into one GEMM with
// a bias+ReLU epilogue unless the Dense output itself is captured.
func (n *Network) forwardBatch(inputs []*tensor.Tensor, capture int, pool *tensor.Pool) (logits, captured *tensor.Tensor) {
	if len(inputs) == 0 {
		panic("nn: ForwardBatch of empty batch")
	}
	if pool == nil {
		pool = tensor.NewPool()
	}
	shape := inputs[0].Shape()
	x := pool.Get32(append([]int{len(inputs)}, shape...)...)
	sampleLen := inputs[0].Len()
	for i, in := range inputs {
		if in.Len() != sampleLen {
			panic(fmt.Sprintf("nn: ForwardBatch input %d has %d elements, input 0 has %d",
				i, in.Len(), sampleLen))
		}
		tensor.Narrow32(x.Data()[i*sampleLen:(i+1)*sampleLen], in.Data())
	}
	cur := x
	var capt *tensor.Tensor32
	i := 0
	for i < len(n.layers) {
		var next *tensor.Tensor32
		step := 1
		if i+1 < len(n.layers) && capture != i {
			if _, isReLU := n.layers[i+1].(*ReLU); isReLU {
				switch l := n.layers[i].(type) {
				case *Dense:
					next = l.forwardBatchDense(cur, pool, true)
					step = 2
				case *Conv2D:
					// Conv→ReLU→MaxPool(2) collapses into one convolution with
					// a bias+ReLU+pool epilogue when neither intermediate is
					// captured.
					step = 2
					if mp, ok := poolAfter(n.layers, i+2); ok && capture != i+1 && l.poolFusable(cur, mp.size) {
						step = 3
					}
					next = l.forwardBatchConv(cur, pool, true, step == 3)
				}
			}
		}
		if next == nil {
			next = n.layers[i].ForwardBatch(cur, pool)
		}
		// Recycle the consumed input unless the new tensor is a view of
		// it (Flatten) or it shares the captured activation's backing
		// array (cur may itself be the captured tensor, or a later view
		// of it).
		if !sameBacking(cur, next) && !sameBacking(cur, capt) {
			pool.Put32(cur)
		}
		cur = next
		if i <= capture && capture <= i+step-1 {
			capt = cur
		}
		i += step
	}
	logits = widen(cur, pool)
	if capt != nil {
		captured = widen(capt, pool)
		if !sameBacking(capt, cur) {
			pool.Put32(capt)
		}
	}
	pool.Put32(cur)
	return logits, captured
}

// sameBacking reports whether b is non-nil and shares a's backing array.
func sameBacking(a, b *tensor.Tensor32) bool {
	return b != nil && &a.Data()[0] == &b.Data()[0]
}

// widen returns a pooled float64 copy of t.
func widen(t *tensor.Tensor32, pool *tensor.Pool) *tensor.Tensor {
	out := pool.Get(t.Shape()...)
	tensor.Widen64(out.Data(), t.Data())
	return out
}

// poolAfter returns the MaxPool at layer index i, if any.
func poolAfter(layers []Layer, i int) (*MaxPool, bool) {
	if i >= len(layers) {
		return nil, false
	}
	mp, ok := layers[i].(*MaxPool)
	return mp, ok
}

// poolFusable reports whether the conv's output on this input divides
// evenly into the pooling window — the only geometry the fused epilogue
// handles (any other geometry would panic in MaxPool anyway, but the
// check keeps the fusion decision explicit and the fallback exact).
func (c *Conv2D) poolFusable(x *tensor.Tensor32, size int) bool {
	if size != 2 || x.Rank() != 4 {
		return false
	}
	outH := (x.Dim(2)-c.kh)/c.stride + 1
	outW := (x.Dim(3)-c.kw)/c.stride + 1
	return outH > 0 && outW > 0 && outH%2 == 0 && outW%2 == 0
}

// batchDim checks that x carries a leading batch dimension over the
// expected per-sample element count of layer l and returns the batch
// size. It names l only when it panics: formatting the name costs more
// than a tiny layer's product.
func batchDim(x *tensor.Tensor32, sampleLen int, l Layer) int {
	if x.Rank() < 2 || x.Dim(0) <= 0 {
		panic(fmt.Sprintf("nn: %s ForwardBatch input %v lacks a batch dimension", l.Name(), x.Shape()))
	}
	if x.Len() != x.Dim(0)*sampleLen {
		panic(fmt.Sprintf("nn: %s ForwardBatch got %d elements per sample, want %d",
			l.Name(), x.Len()/x.Dim(0), sampleLen))
	}
	return x.Dim(0)
}

// ForwardBatch implements Layer: the whole batch is one
// tensor.DenseBatchInto product on the prepacked float32 panels, the bias
// added in the kernels' store.
func (d *Dense) ForwardBatch(x *tensor.Tensor32, pool *tensor.Pool) *tensor.Tensor32 {
	return d.forwardBatchDense(x, pool, false)
}

func (d *Dense) forwardBatchDense(x *tensor.Tensor32, pool *tensor.Pool, fuseReLU bool) *tensor.Tensor32 {
	b := batchDim(x, d.in, d)
	xm := x
	if x.Rank() != 2 {
		xm = x.Reshape(b, d.in)
	}
	out := pool.Get32(b, d.out)
	tensor.DenseBatchInto(out, xm, d.w.f32, d.b.f32.Data(), fuseReLU)
	return out
}

// ForwardBatch implements Layer: the whole batch is convolved by one
// stripe-fused tensor.Conv2DBatchInto with the bias folded in.
func (c *Conv2D) ForwardBatch(x *tensor.Tensor32, pool *tensor.Pool) *tensor.Tensor32 {
	return c.forwardBatchConv(x, pool, false, false)
}

// forwardBatchConv is the batched convolution with the layers that
// follow it fused into its epilogue: relu covers Conv→ReLU, pool2 (with
// relu) Conv→ReLU→MaxPool(2), whose full-resolution map then never
// exists. Bit-identical to the unfused batched layer sequence.
func (c *Conv2D) forwardBatchConv(x *tensor.Tensor32, pool *tensor.Pool, relu, pool2 bool) *tensor.Tensor32 {
	if x.Rank() != 4 || x.Dim(1) != c.inC {
		panic(fmt.Sprintf("nn: %s ForwardBatch got input %v, want (B,%d,H,W)", c.Name(), x.Shape(), c.inC))
	}
	outH := (x.Dim(2)-c.kh)/c.stride + 1
	outW := (x.Dim(3)-c.kw)/c.stride + 1
	if pool2 {
		outH, outW = outH/2, outW/2
	}
	out := pool.Get32(x.Dim(0), c.outC, outH, outW)
	tensor.Conv2DBatchInto(out, x, c.w.f32, c.b.f32.Data(), c.stride, relu, pool2)
	return out
}

// ForwardBatch implements Layer: one rectification sweep over the stacked
// batch.
func (l *ReLU) ForwardBatch(x *tensor.Tensor32, pool *tensor.Pool) *tensor.Tensor32 {
	out := pool.Get32(x.Shape()...)
	dst := out.Data()
	for i, v := range x.Data() {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
	return out
}

// ForwardBatch implements Layer: a reshaping view keeping the batch
// dimension — no copy, the backing array is shared with x.
func (l *Flatten) ForwardBatch(x *tensor.Tensor32, pool *tensor.Pool) *tensor.Tensor32 {
	b := x.Dim(0)
	return x.Reshape(b, x.Len()/b)
}

// ForwardBatch implements Layer: plane-by-plane pooling into one pooled
// output, with no argmax bookkeeping.
func (l *MaxPool) ForwardBatch(x *tensor.Tensor32, pool *tensor.Pool) *tensor.Tensor32 {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: %s ForwardBatch got input %v, want (B,C,H,W)", l.Name(), x.Shape()))
	}
	b, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	out := pool.Get32(b, c, h/l.size, w/l.size)
	tensor.MaxPool2DBatchInto(out, x, l.size)
	return out
}

// ForwardBatch implements Layer: channel-wise normalization of the whole
// batch with the frozen running statistics (inference mode), in float32
// in Forward's normalize-then-affine order. The product g·norm is
// rounded before the add, so no target may fuse the two.
func (bn *BatchNorm) ForwardBatch(x *tensor.Tensor32, pool *tensor.Pool) *tensor.Tensor32 {
	if x.Rank() != 4 || x.Dim(1) != bn.ch {
		panic(fmt.Sprintf("nn: %s ForwardBatch got input %v, want (B,%d,H,W)", bn.Name(), x.Shape(), bn.ch))
	}
	b, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	area := h * w
	out := pool.Get32(b, bn.ch, h, w)
	for c := 0; c < bn.ch; c++ {
		mean := bn.runMean.f32.Data()[c]
		invStd := 1 / float32(math.Sqrt(float64(bn.runVar.f32.Data()[c]+bnEps)))
		g, bv := bn.gamma.f32.Data()[c], bn.beta.f32.Data()[c]
		for s := 0; s < b; s++ {
			base := (s*bn.ch + c) * area
			src := x.Data()[base : base+area]
			dst := out.Data()[base : base+area]
			for i, v := range src {
				norm := (v - mean) * invStd
				dst[i] = float32(g*norm) + bv
			}
		}
	}
	return out
}
