package tensor

// MaxPool2D performs non-overlapping max pooling with a square window of
// the given size over a CHW tensor. It returns the pooled tensor and, for
// use by backpropagation, the flat input index of the maximum chosen for
// each output element. Input height and width must be divisible by size.
func MaxPool2D(input *Tensor, size int) (*Tensor, []int) {
	c, h, w := input.shape[0], input.shape[1], input.shape[2]
	if h%size != 0 || w%size != 0 {
		panic("tensor: MaxPool2D input not divisible by window size")
	}
	out := New(c, h/size, w/size)
	argmax := make([]int, out.Len())
	maxPoolCHW(out.data, input.data, argmax, c, h, w, size)
	return out, argmax
}

// MaxPool2DBatchInto max-pools a stacked (B, C, H, W) batch into dst of
// shape (B, C, H/size, W/size), sample by sample, without recording
// argmax indices — the inference-only variant the batched forward pass
// uses with pooled scratch. Every element of dst is overwritten.
func MaxPool2DBatchInto(dst, batch *Tensor, size int) {
	if batch.Rank() != 4 {
		panic("tensor: MaxPool2DBatchInto requires a rank-4 (B,C,H,W) batch")
	}
	b, c, h, w := batch.shape[0], batch.shape[1], batch.shape[2], batch.shape[3]
	if h%size != 0 || w%size != 0 {
		panic("tensor: MaxPool2DBatchInto input not divisible by window size")
	}
	if dst.Len() != b*c*(h/size)*(w/size) {
		panic("tensor: MaxPool2DBatchInto size mismatch")
	}
	inLen, outLen := c*h*w, c*(h/size)*(w/size)
	for s := 0; s < b; s++ {
		maxPoolCHW(dst.data[s*outLen:(s+1)*outLen], batch.data[s*inLen:(s+1)*inLen],
			nil, c, h, w, size)
	}
}

// maxPoolCHW pools one CHW sample from src into dst. When argmax is
// non-nil it additionally records the flat src index of each chosen
// maximum (the backward-pass map). The ubiquitous 2×2 inference case
// takes an unrolled fast path with identical first-wins comparison
// semantics.
func maxPoolCHW(dst, src []float64, argmax []int, c, h, w, size int) {
	if size == 2 && argmax == nil {
		maxPool2CHW(dst, src, c, h, w)
		return
	}
	outH, outW := h/size, w/size
	oi := 0
	for ch := 0; ch < c; ch++ {
		base := ch * h * w
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				bestIdx := base + (oy*size)*w + ox*size
				best := src[bestIdx]
				for py := 0; py < size; py++ {
					rowBase := base + (oy*size+py)*w + ox*size
					for px := 0; px < size; px++ {
						if v := src[rowBase+px]; v > best {
							best = v
							bestIdx = rowBase + px
						}
					}
				}
				dst[oi] = best
				if argmax != nil {
					argmax[oi] = bestIdx
				}
				oi++
			}
		}
	}
}

// maxPool2CHW is the unrolled 2×2 pooling kernel: it walks two input
// rows in lockstep with no per-window index bookkeeping.
func maxPool2CHW(dst, src []float64, c, h, w int) {
	outW := w / 2
	oi := 0
	for ch := 0; ch < c; ch++ {
		base := ch * h * w
		for oy := 0; oy < h/2; oy++ {
			r0 := src[base+2*oy*w : base+2*oy*w+w]
			r1 := src[base+(2*oy+1)*w : base+(2*oy+1)*w+w]
			out := dst[oi : oi+outW : oi+outW]
			for ox := 0; ox < outW; ox++ {
				out[ox] = max4(r0[2*ox], r0[2*ox+1], r1[2*ox], r1[2*ox+1])
			}
			oi += outW
		}
	}
}

// MaxPool2DBackward scatters the output gradient through the argmax map
// produced by MaxPool2D, returning the gradient with respect to the input
// of the given CHW shape.
func MaxPool2DBackward(gradOut *Tensor, argmax []int, inC, inH, inW int) *Tensor {
	gradIn := New(inC, inH, inW)
	for i, g := range gradOut.data {
		gradIn.data[argmax[i]] += g
	}
	return gradIn
}
