// Package nn is a from-scratch neural-network library sufficient to train
// and run the paper's networks (Table I): 2-D convolutions, max pooling,
// batch normalization, fully-connected layers and ReLU, with SGD+momentum
// training via backpropagation, model serialization and the two facilities
// the monitor needs — capturing hidden-layer activations during inference
// and computing output-to-neuron gradients for neuron selection.
//
// Inference runs whole batches through ForwardBatch, in float32. Training
// steps one sample at a time in float64 and accumulates gradients across
// a mini-batch before each optimizer step; gradients and backward caches
// exist only while training. Every weight array keeps its float64 master
// for training and, beside it, the float32 copy inference reads, which
// every writer of the master re-derives after its writes. BatchNorm
// normalizes with running statistics (updated online during training,
// used frozen in the backward pass), a standard small-batch
// approximation that preserves the Table I architecture.
package nn

import (
	"fmt"
	"math"

	"napmon/internal/rng"
	"napmon/internal/tensor"
)

// Param couples a learnable tensor with its gradient accumulator.
type Param struct {
	Name  string
	Value *tensor.Tensor
	// Grad accumulates the gradient while the network trains. It is nil
	// until the first training-mode use and again after Train returns.
	Grad *tensor.Tensor

	w *weight // the array Value is the master of, for SGD.Step's sync
}

// weight is one array a model file carries: the float64 master training
// updates, the float32 copy batched inference reads — float32(master),
// laid out as tensor.PackPanels32's micro kernel panels for a dense
// layer's matrix and element for element otherwise, because every writer
// of the master (initialization, SGD.Step, Load, BatchNorm's running
// statistics) calls sync after its writes — and, for a learnable array,
// its gradient, which exists only while training. Clones made by
// CloneShared copy the struct, so they share all three arrays.
type weight struct {
	v      *tensor.Tensor
	f32    *tensor.Tensor32
	g      *tensor.Tensor
	panels bool // f32 holds the (out, in) master as panels
}

func newWeight(shape ...int) weight {
	return weight{v: tensor.New(shape...), f32: tensor.New32(shape...)}
}

// newPanelWeight returns a dense layer's (out, in) weight matrix, whose
// float32 copy is the panels tensor.DenseBatchInto reads.
func newPanelWeight(out, in int) weight {
	return weight{v: tensor.New(out, in), f32: tensor.New32(tensor.PanelsLen32(out, in)), panels: true}
}

// sync re-derives the float32 copy from the master.
func (w *weight) sync() {
	if w.panels {
		tensor.PackPanels32(w.f32.Data(), w.v.Data(), w.v.Dim(0), w.v.Dim(1))
		return
	}
	tensor.Narrow32(w.f32.Data(), w.v.Data())
}

// fill sets every element of the master, and so of its copy, to x.
func (w *weight) fill(x float64) {
	for i := range w.v.Data() {
		w.v.Data()[i] = x
	}
	w.sync()
}

// grad returns the gradient, allocating it on first use.
func (w *weight) grad() *tensor.Tensor {
	if w.g == nil {
		w.g = tensor.New(w.v.Shape()...)
	}
	return w.g
}

func (w *weight) param(name string) Param {
	return Param{Name: name, Value: w.v, Grad: w.g, w: w}
}

// Layer is one differentiable stage of a network. Forward with train=true
// caches whatever Backward needs; Backward consumes the cache from the most
// recent training-mode Forward and accumulates parameter gradients.
type Layer interface {
	// Name returns a short human-readable identifier such as "fc(84)".
	Name() string
	// Forward applies the layer. With train=false no state is cached and
	// (for BatchNorm) inference statistics are used.
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// ForwardBatch applies the layer to a whole batch stacked along a
	// leading dimension: x has shape (B, per-sample shape...) and the
	// result keeps the batch dimension first. It is inference-only (no
	// caching, BatchNorm uses running statistics), draws every scratch
	// and output buffer from pool, and touches no per-layer mutable
	// state — so unlike Forward it is safe to call concurrently on the
	// same layer. It computes in float32 on the float32 weight copies:
	// row b of the output is bit-identical to the width-1 pass over
	// sample b, and within float32 rounding of the float64
	// Forward(sample b); see batch.go.
	ForwardBatch(x *tensor.Tensor32, pool *tensor.Pool) *tensor.Tensor32
	// Backward propagates gradOut (gradient of the loss with respect to
	// this layer's output) to the layer input, accumulating parameter
	// gradients along the way.
	Backward(gradOut *tensor.Tensor) *tensor.Tensor
	// Params returns the learnable parameters, empty for stateless layers.
	Params() []Param
	// weights returns the learnable arrays, in Params order.
	weights() []*weight
	// release drops the gradients and every backward cache: the state
	// only training needs.
	release()
	// Spec returns the serializable configuration of the layer.
	Spec() Spec
	// clone returns a copy sharing parameter tensors but owning its own
	// forward caches, so clones can run inference concurrently.
	clone() Layer
}

// Spec is the serializable configuration of one layer. Kind selects the
// layer type; the remaining fields are interpreted per kind.
type Spec struct {
	Kind   string `json:"kind"`
	In     int    `json:"in,omitempty"`     // dense: input width
	Out    int    `json:"out,omitempty"`    // dense: output width; conv: out channels
	InC    int    `json:"inC,omitempty"`    // conv: input channels
	KH     int    `json:"kh,omitempty"`     // conv: kernel height
	KW     int    `json:"kw,omitempty"`     // conv: kernel width
	Stride int    `json:"stride,omitempty"` // conv
	Size   int    `json:"size,omitempty"`   // maxpool window
	Ch     int    `json:"ch,omitempty"`     // batchnorm channels
}

// Layer kind identifiers used in Spec.Kind.
const (
	KindConv    = "conv"
	KindDense   = "dense"
	KindReLU    = "relu"
	KindMaxPool = "maxpool"
	KindBN      = "batchnorm"
	KindFlatten = "flatten"
)

// buildLayer constructs a freshly initialized layer from its spec.
func buildLayer(s Spec, r *rng.Source) (Layer, error) {
	switch s.Kind {
	case KindConv:
		return NewConv2D(s.Out, s.InC, s.KH, s.KW, s.Stride, r), nil
	case KindDense:
		return NewDense(s.In, s.Out, r), nil
	case KindReLU:
		return NewReLU(), nil
	case KindMaxPool:
		return NewMaxPool(s.Size), nil
	case KindBN:
		return NewBatchNorm(s.Ch), nil
	case KindFlatten:
		return NewFlatten(), nil
	default:
		return nil, fmt.Errorf("nn: unknown layer kind %q", s.Kind)
	}
}

// heInit fills w with He-normal initialization for the given fan-in, the
// standard choice for ReLU networks.
func heInit(w *weight, fanIn int, r *rng.Source) {
	stddev := 0.0
	if fanIn > 0 {
		stddev = math.Sqrt(2.0 / float64(fanIn))
	}
	for i := range w.v.Data() {
		w.v.Data()[i] = r.NormScaled(0, stddev)
	}
	w.sync()
}
