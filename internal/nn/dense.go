package nn

import (
	"fmt"

	"napmon/internal/rng"
	"napmon/internal/tensor"
)

// Dense is a fully-connected layer computing y = Wx + b for a flat input
// vector x of length in and output of length out.
type Dense struct {
	in, out int
	w       weight         // (out, in), its float32 copy as panels
	b       weight         // (out)
	lastIn  *tensor.Tensor // cached input for Backward
}

// NewDense returns a He-initialized fully-connected layer.
func NewDense(in, out int, r *rng.Source) *Dense {
	d := &Dense{in: in, out: out, w: newPanelWeight(out, in), b: newWeight(out)}
	heInit(&d.w, in, r)
	return d
}

// Name implements Layer.
func (d *Dense) Name() string { return fmt.Sprintf("fc(%d)", d.out) }

// Spec implements Layer.
func (d *Dense) Spec() Spec { return Spec{Kind: KindDense, In: d.in, Out: d.out} }

// Weights exposes the weight matrix (out, in). The monitor's gradient-based
// neuron selection reads it directly when the monitored layer feeds a
// linear output layer (the paper's special case where ∂n_c/∂n_i is simply
// the connecting weight).
func (d *Dense) Weights() *tensor.Tensor { return d.w.v }

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Len() != d.in {
		panic(fmt.Sprintf("nn: %s got input of %d elements, want %d", d.Name(), x.Len(), d.in))
	}
	if train {
		d.lastIn = x
	}
	y := tensor.MatVec(d.w.v, x.Data())
	for i := range y {
		y[i] += d.b.v.Data()[i]
	}
	return tensor.FromSlice(y, d.out)
}

// Backward implements Layer.
func (d *Dense) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if d.lastIn == nil {
		panic("nn: Dense.Backward before training-mode Forward")
	}
	g := gradOut.Data()
	x := d.lastIn.Data()
	gw, gb := d.w.grad().Data(), d.b.grad().Data()
	// dW[i][j] += g[i] * x[j]; db[i] += g[i]
	for i := 0; i < d.out; i++ {
		gi := g[i]
		gb[i] += gi
		if gi == 0 {
			continue
		}
		row := gw[i*d.in : (i+1)*d.in]
		for j, xv := range x {
			row[j] += gi * xv
		}
	}
	// dx = Wᵀ g
	gin := make([]float64, d.in)
	for i := 0; i < d.out; i++ {
		gi := g[i]
		if gi == 0 {
			continue
		}
		row := d.w.v.Data()[i*d.in : (i+1)*d.in]
		for j, wv := range row {
			gin[j] += wv * gi
		}
	}
	return tensor.FromSlice(gin, d.in)
}

// Params implements Layer.
func (d *Dense) Params() []Param {
	return []Param{d.w.param(d.Name() + ".w"), d.b.param(d.Name() + ".b")}
}

func (d *Dense) weights() []*weight { return []*weight{&d.w, &d.b} }

func (d *Dense) release() {
	d.w.g, d.b.g, d.lastIn = nil, nil, nil
}

func (d *Dense) clone() Layer {
	c := *d
	c.lastIn = nil
	return &c
}

// ReLU applies the rectifier max(0, x) element-wise. Its on/off pattern is
// what the monitor abstracts (Definition 1 of the paper).
type ReLU struct {
	mask []bool // which inputs were positive in the last training Forward
}

// NewReLU returns a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Name implements Layer.
func (l *ReLU) Name() string { return "relu" }

// Spec implements Layer.
func (l *ReLU) Spec() Spec { return Spec{Kind: KindReLU} }

// Forward implements Layer.
func (l *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := x.Clone()
	if train {
		if cap(l.mask) < out.Len() {
			l.mask = make([]bool, out.Len())
		}
		l.mask = l.mask[:out.Len()]
	}
	for i, v := range out.Data() {
		pos := v > 0
		if !pos {
			out.Data()[i] = 0
		}
		if train {
			l.mask[i] = pos
		}
	}
	return out
}

// Backward implements Layer.
func (l *ReLU) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if len(l.mask) != gradOut.Len() {
		panic("nn: ReLU.Backward before training-mode Forward")
	}
	gin := gradOut.Clone()
	for i := range gin.Data() {
		if !l.mask[i] {
			gin.Data()[i] = 0
		}
	}
	return gin
}

// Params implements Layer.
func (l *ReLU) Params() []Param { return nil }

func (l *ReLU) weights() []*weight { return nil }

func (l *ReLU) release() { l.mask = nil }

func (l *ReLU) clone() Layer { return &ReLU{} }

// Flatten reshapes any tensor to a flat vector, remembering the original
// shape for the backward pass.
type Flatten struct {
	shape []int
}

// NewFlatten returns a Flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Name implements Layer.
func (l *Flatten) Name() string { return "flatten" }

// Spec implements Layer.
func (l *Flatten) Spec() Spec { return Spec{Kind: KindFlatten} }

// Forward implements Layer.
func (l *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		l.shape = append(l.shape[:0], x.Shape()...)
	}
	return x.Reshape(x.Len())
}

// Backward implements Layer.
func (l *Flatten) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	return gradOut.Reshape(l.shape...)
}

// Params implements Layer.
func (l *Flatten) Params() []Param { return nil }

func (l *Flatten) weights() []*weight { return nil }

func (l *Flatten) release() { l.shape = nil }

func (l *Flatten) clone() Layer { return &Flatten{} }
