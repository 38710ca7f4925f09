// Package nn is a from-scratch neural-network library sufficient to train
// and run the paper's networks (Table I): 2-D convolutions, max pooling,
// batch normalization, fully-connected layers and ReLU, with SGD+momentum
// training via backpropagation, model serialization and the two facilities
// the monitor needs — capturing hidden-layer activations during inference
// and computing output-to-neuron gradients for neuron selection.
//
// Inference runs whole batches through ForwardBatch. Training steps one
// sample at a time and accumulates gradients across a mini-batch before
// each optimizer step. BatchNorm therefore normalizes with running
// statistics (updated online during training, used frozen in the backward
// pass), a standard small-batch approximation that preserves the Table I
// architecture.
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
	Grad  *tensor.Tensor
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
	// same layer. Row b of the output is bit-identical to
	// Forward(sample b); see batch.go.
	ForwardBatch(x *tensor.Tensor, pool *tensor.Pool) *tensor.Tensor
	// Backward propagates gradOut (gradient of the loss with respect to
	// this layer's output) to the layer input, accumulating parameter
	// gradients along the way.
	Backward(gradOut *tensor.Tensor) *tensor.Tensor
	// Params returns the learnable parameters, empty for stateless layers.
	Params() []Param
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

// heInit fills t with He-normal initialization for the given fan-in, the
// standard choice for ReLU networks.
func heInit(t *tensor.Tensor, fanIn int, r *rng.Source) {
	stddev := 0.0
	if fanIn > 0 {
		stddev = math.Sqrt(2.0 / float64(fanIn))
	}
	for i := range t.Data() {
		t.Data()[i] = r.NormScaled(0, stddev)
	}
}
