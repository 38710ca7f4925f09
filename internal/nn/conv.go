package nn

import (
	"fmt"
	"math"

	"napmon/internal/rng"
	"napmon/internal/tensor"
)

// Conv2D is a 2-D convolution layer (cross-correlation, no padding) over
// CHW inputs, implemented with im2col so the heavy lifting is one matrix
// multiply per sample.
type Conv2D struct {
	outC, inC, kh, kw, stride int
	w                         weight // (outC, inC, kh, kw)
	b                         weight // (outC)

	lastCols           *tensor.Tensor // im2col of last training input
	lastInH, lastInW   int
	lastOutH, lastOutW int
}

// NewConv2D returns a He-initialized convolution layer.
func NewConv2D(outC, inC, kh, kw, stride int, r *rng.Source) *Conv2D {
	c := &Conv2D{
		outC: outC, inC: inC, kh: kh, kw: kw, stride: stride,
		w: newWeight(outC, inC, kh, kw),
		b: newWeight(outC),
	}
	heInit(&c.w, inC*kh*kw, r)
	return c
}

// Name implements Layer.
func (c *Conv2D) Name() string { return fmt.Sprintf("conv(%d)", c.outC) }

// Spec implements Layer.
func (c *Conv2D) Spec() Spec {
	return Spec{Kind: KindConv, Out: c.outC, InC: c.inC, KH: c.kh, KW: c.kw, Stride: c.stride}
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 3 || x.Dim(0) != c.inC {
		panic(fmt.Sprintf("nn: %s got input %v, want (%d,H,W)", c.Name(), x.Shape(), c.inC))
	}
	inH, inW := x.Dim(1), x.Dim(2)
	outH := (inH-c.kh)/c.stride + 1
	outW := (inW-c.kw)/c.stride + 1
	cols := tensor.Im2Col(x, c.kh, c.kw, c.stride)
	if train {
		c.lastCols = cols
		c.lastInH, c.lastInW = inH, inW
		c.lastOutH, c.lastOutW = outH, outW
	}
	wMat := c.w.v.Reshape(c.outC, c.inC*c.kh*c.kw)
	out := tensor.MatMul(wMat, cols)
	for ch := 0; ch < c.outC; ch++ {
		row := out.Data()[ch*outH*outW : (ch+1)*outH*outW]
		bv := c.b.v.Data()[ch]
		for i := range row {
			row[i] += bv
		}
	}
	return out.Reshape(c.outC, outH, outW)
}

// Backward implements Layer.
func (c *Conv2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if c.lastCols == nil {
		panic("nn: Conv2D.Backward before training-mode Forward")
	}
	p := c.lastOutH * c.lastOutW
	g := gradOut.Reshape(c.outC, p)
	// Bias gradient: sum over spatial positions.
	gb := c.b.grad().Data()
	for ch := 0; ch < c.outC; ch++ {
		sum := 0.0
		for _, v := range g.Data()[ch*p : (ch+1)*p] {
			sum += v
		}
		gb[ch] += sum
	}
	// Weight gradient: g (outC, p) × colsᵀ (p, K) = (outC, K).
	gw := tensor.MatMulTransB(g, c.lastCols)
	c.w.grad().AddInto(gw.Reshape(c.outC, c.inC, c.kh, c.kw))
	// Input gradient: Wᵀ (K, outC) × g (outC, p) = (K, p) scattered by col2im.
	wMat := c.w.v.Reshape(c.outC, c.inC*c.kh*c.kw)
	gCols := tensor.MatMulTransA(wMat, g)
	return tensor.Col2Im(gCols, c.inC, c.lastInH, c.lastInW, c.kh, c.kw, c.stride)
}

// Params implements Layer.
func (c *Conv2D) Params() []Param {
	return []Param{c.w.param(c.Name() + ".w"), c.b.param(c.Name() + ".b")}
}

func (c *Conv2D) weights() []*weight { return []*weight{&c.w, &c.b} }

func (c *Conv2D) release() {
	c.w.g, c.b.g, c.lastCols = nil, nil, nil
}

func (c *Conv2D) clone() Layer {
	cp := *c
	cp.lastCols = nil
	return &cp
}

// MaxPool is a non-overlapping square max-pooling layer over CHW tensors.
type MaxPool struct {
	size          int
	argmax        []int
	inC, inH, inW int
}

// NewMaxPool returns a max-pooling layer with the given window size.
func NewMaxPool(size int) *MaxPool { return &MaxPool{size: size} }

// Name implements Layer.
func (l *MaxPool) Name() string { return fmt.Sprintf("maxpool(%d)", l.size) }

// Spec implements Layer.
func (l *MaxPool) Spec() Spec { return Spec{Kind: KindMaxPool, Size: l.size} }

// Forward implements Layer.
func (l *MaxPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out, argmax := tensor.MaxPool2D(x, l.size)
	if train {
		l.argmax = argmax
		l.inC, l.inH, l.inW = x.Dim(0), x.Dim(1), x.Dim(2)
	}
	return out
}

// Backward implements Layer.
func (l *MaxPool) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if l.argmax == nil {
		panic("nn: MaxPool.Backward before training-mode Forward")
	}
	return tensor.MaxPool2DBackward(gradOut, l.argmax, l.inC, l.inH, l.inW)
}

// Params implements Layer.
func (l *MaxPool) Params() []Param { return nil }

func (l *MaxPool) weights() []*weight { return nil }

func (l *MaxPool) release() { l.argmax = nil }

func (l *MaxPool) clone() Layer { return &MaxPool{size: l.size} }

// BatchNorm normalizes each channel of a CHW tensor with running
// statistics and applies a learnable affine transform. Because training is
// sample-at-a-time, the running mean/variance are updated online from
// per-sample spatial statistics and treated as constants in the backward
// pass (frozen-statistics BN). bnEps guards against division by zero.
type BatchNorm struct {
	ch              int
	gamma, beta     weight
	runMean, runVar weight
	lastNorm        *tensor.Tensor // normalized input cached for Backward
	momentum        float64
}

const bnEps = 1e-5

// NewBatchNorm returns a BatchNorm layer for ch channels with gamma=1,
// beta=0 and unit running variance.
func NewBatchNorm(ch int) *BatchNorm {
	bn := &BatchNorm{
		ch:       ch,
		gamma:    newWeight(ch),
		beta:     newWeight(ch),
		runMean:  newWeight(ch),
		runVar:   newWeight(ch),
		momentum: 0.1,
	}
	bn.gamma.fill(1)
	bn.runVar.fill(1)
	return bn
}

// Name implements Layer.
func (bn *BatchNorm) Name() string { return fmt.Sprintf("bn(%d)", bn.ch) }

// Spec implements Layer.
func (bn *BatchNorm) Spec() Spec { return Spec{Kind: KindBN, Ch: bn.ch} }

// Forward implements Layer.
func (bn *BatchNorm) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 3 || x.Dim(0) != bn.ch {
		panic(fmt.Sprintf("nn: %s got input %v, want (%d,H,W)", bn.Name(), x.Shape(), bn.ch))
	}
	h, w := x.Dim(1), x.Dim(2)
	area := h * w
	if train {
		// Update running statistics from this sample's spatial moments.
		for c := 0; c < bn.ch; c++ {
			data := x.Data()[c*area : (c+1)*area]
			mean := 0.0
			for _, v := range data {
				mean += v
			}
			mean /= float64(area)
			variance := 0.0
			for _, v := range data {
				d := v - mean
				variance += d * d
			}
			variance /= float64(area)
			bn.runMean.v.Data()[c] = (1-bn.momentum)*bn.runMean.v.Data()[c] + bn.momentum*mean
			bn.runVar.v.Data()[c] = (1-bn.momentum)*bn.runVar.v.Data()[c] + bn.momentum*variance
		}
		bn.runMean.sync()
		bn.runVar.sync()
	}
	out := tensor.New(bn.ch, h, w)
	norm := tensor.New(bn.ch, h, w)
	for c := 0; c < bn.ch; c++ {
		mean := bn.runMean.v.Data()[c]
		invStd := 1 / math.Sqrt(bn.runVar.v.Data()[c]+bnEps)
		g, b := bn.gamma.v.Data()[c], bn.beta.v.Data()[c]
		src := x.Data()[c*area : (c+1)*area]
		dstN := norm.Data()[c*area : (c+1)*area]
		dst := out.Data()[c*area : (c+1)*area]
		for i, v := range src {
			n := (v - mean) * invStd
			dstN[i] = n
			dst[i] = g*n + b
		}
	}
	if train {
		bn.lastNorm = norm
	}
	return out
}

// Backward implements Layer.
func (bn *BatchNorm) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if bn.lastNorm == nil {
		panic("nn: BatchNorm.Backward before training-mode Forward")
	}
	h, w := gradOut.Dim(1), gradOut.Dim(2)
	area := h * w
	gin := tensor.New(bn.ch, h, w)
	gGamma, gBeta := bn.gamma.grad().Data(), bn.beta.grad().Data()
	for c := 0; c < bn.ch; c++ {
		invStd := 1 / math.Sqrt(bn.runVar.v.Data()[c]+bnEps)
		g := bn.gamma.v.Data()[c]
		gOut := gradOut.Data()[c*area : (c+1)*area]
		norm := bn.lastNorm.Data()[c*area : (c+1)*area]
		dst := gin.Data()[c*area : (c+1)*area]
		var sumG, sumGN float64
		for i, gv := range gOut {
			sumG += gv
			sumGN += gv * norm[i]
		}
		gBeta[c] += sumG
		gGamma[c] += sumGN
		scale := g * invStd
		for i, gv := range gOut {
			dst[i] = scale * gv
		}
	}
	return gin
}

// Params implements Layer.
func (bn *BatchNorm) Params() []Param {
	return []Param{bn.gamma.param(bn.Name() + ".gamma"), bn.beta.param(bn.Name() + ".beta")}
}

func (bn *BatchNorm) weights() []*weight { return []*weight{&bn.gamma, &bn.beta} }

func (bn *BatchNorm) release() {
	bn.gamma.g, bn.beta.g, bn.lastNorm = nil, nil, nil
}

func (bn *BatchNorm) clone() Layer {
	c := *bn
	c.lastNorm = nil
	return &c
}
