package nn

import (
	"fmt"
	"math"
	"strings"

	"napmon/internal/rng"
	"napmon/internal/tensor"
)

// Network is an ordered stack of layers mapping an input tensor to a
// logits vector. It also provides the two capabilities the activation
// monitor needs: capturing the output of an arbitrary hidden layer during
// a forward pass, and computing the gradient of an output neuron with
// respect to a hidden layer's output (for neuron selection).
type Network struct {
	layers []Layer
}

// New assembles a network from the given layers.
func New(layers ...Layer) *Network { return &Network{layers: layers} }

// Build constructs a freshly initialized network from layer specs.
func Build(specs []Spec, r *rng.Source) (*Network, error) {
	layers := make([]Layer, len(specs))
	for i, s := range specs {
		l, err := buildLayer(s, r)
		if err != nil {
			return nil, fmt.Errorf("nn: layer %d: %w", i, err)
		}
		layers[i] = l
	}
	return New(layers...), nil
}

// NumLayers returns the number of layers.
func (n *Network) NumLayers() int { return len(n.layers) }

// Layer returns the i-th layer.
func (n *Network) Layer(i int) Layer { return n.layers[i] }

// Specs returns the serializable configuration of every layer.
func (n *Network) Specs() []Spec {
	specs := make([]Spec, len(n.layers))
	for i, l := range n.layers {
		specs[i] = l.Spec()
	}
	return specs
}

// String renders the architecture in the style of the paper's Table I.
func (n *Network) String() string {
	names := make([]string, len(n.layers))
	for i, l := range n.layers {
		names[i] = l.Name()
	}
	return strings.Join(names, ", ")
}

// Forward runs a full inference pass and returns the logits.
func (n *Network) Forward(x *tensor.Tensor) *tensor.Tensor {
	return n.forward(x, false)
}

func (n *Network) forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range n.layers {
		x = l.Forward(x, train)
	}
	return x
}

// ForwardCapture runs inference and additionally returns the output of the
// layer at index capture (e.g. a hidden ReLU layer whose activation
// pattern the monitor inspects).
func (n *Network) ForwardCapture(x *tensor.Tensor, capture int) (logits, captured *tensor.Tensor) {
	if capture < 0 || capture >= len(n.layers) {
		panic(fmt.Sprintf("nn: capture index %d out of range [0,%d)", capture, len(n.layers)))
	}
	for i, l := range n.layers {
		x = l.Forward(x, false)
		if i == capture {
			captured = x
		}
	}
	return x, captured
}

// Predict returns the argmax class of the logits for input x, the paper's
// dec_f(in).
func (n *Network) Predict(x *tensor.Tensor) int {
	return n.Forward(x).ArgMax()
}

// Params returns every learnable parameter of the network.
func (n *Network) Params() []Param {
	var ps []Param
	for _, l := range n.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ZeroGrads clears all accumulated parameter gradients, allocating any
// that do not exist yet.
func (n *Network) ZeroGrads() {
	for _, p := range n.trainParams() {
		p.Grad.Zero()
	}
}

// trainParams returns Params with every gradient allocated.
func (n *Network) trainParams() []Param {
	for _, l := range n.layers {
		for _, w := range l.weights() {
			w.grad()
		}
	}
	return n.Params()
}

// release drops every layer's gradients and backward caches, which only
// training needs; the next training-mode use allocates them again.
func (n *Network) release() {
	for _, l := range n.layers {
		l.release()
	}
}

// TrainStep runs a training-mode forward pass, computes softmax
// cross-entropy loss against the label, backpropagates and accumulates
// parameter gradients. It returns the loss and the predicted class.
func (n *Network) TrainStep(x *tensor.Tensor, label int) (loss float64, pred int) {
	logits := n.forward(x, true)
	loss, grad := SoftmaxCrossEntropy(logits, label)
	pred = logits.ArgMax()
	g := grad
	for i := len(n.layers) - 1; i >= 0; i-- {
		g = n.layers[i].Backward(g)
	}
	return loss, pred
}

// GradientAtLayer computes d(logit[class]) / d(output of layer `layer`) at
// input x by backpropagating a one-hot gradient from the logits down to,
// but not through, the given layer. Parameter gradients accumulated along
// the way are discarded (callers should not be mid-training-step).
// This implements the paper's gradient-based sensitivity analysis for
// selecting important neurons.
func (n *Network) GradientAtLayer(x *tensor.Tensor, class, layer int) *tensor.Tensor {
	if layer < 0 || layer >= len(n.layers)-1 {
		panic("nn: GradientAtLayer layer index must precede the last layer")
	}
	logits := n.forward(x, true)
	if class < 0 || class >= logits.Len() {
		panic("nn: GradientAtLayer class out of range")
	}
	grad := tensor.New(logits.Shape()...)
	grad.Data()[class] = 1
	g := grad
	for i := len(n.layers) - 1; i > layer; i-- {
		g = n.layers[i].Backward(g)
	}
	return g
}

// CloneShared returns a network that shares n's parameter tensors and
// their float32 copies but owns private per-layer forward caches, so
// inference can run concurrently with other clones and adds no weight
// memory. It must not be trained while the original is in use.
func (n *Network) CloneShared() *Network {
	layers := make([]Layer, len(n.layers))
	for i, l := range n.layers {
		layers[i] = l.clone()
	}
	return New(layers...)
}

// Softmax returns the softmax of the logits in a numerically stable way.
func Softmax(logits *tensor.Tensor) []float64 {
	maxV := math.Inf(-1)
	for _, v := range logits.Data() {
		if v > maxV {
			maxV = v
		}
	}
	exp := make([]float64, logits.Len())
	sum := 0.0
	for i, v := range logits.Data() {
		e := math.Exp(v - maxV)
		exp[i] = e
		sum += e
	}
	for i := range exp {
		exp[i] /= sum
	}
	return exp
}

// SoftmaxCrossEntropy returns the cross-entropy loss of logits against the
// integer label, along with the gradient of the loss with respect to the
// logits (softmax(x) - onehot(label)).
func SoftmaxCrossEntropy(logits *tensor.Tensor, label int) (float64, *tensor.Tensor) {
	if label < 0 || label >= logits.Len() {
		panic(fmt.Sprintf("nn: label %d out of range for %d logits", label, logits.Len()))
	}
	probs := Softmax(logits)
	loss := -math.Log(math.Max(probs[label], 1e-300))
	grad := tensor.FromSlice(probs, logits.Shape()...)
	grad.Data()[label] -= 1
	return loss, grad
}
