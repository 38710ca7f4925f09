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
	outH, outW := h/size, w/size
	oi := 0
	for ch := 0; ch < c; ch++ {
		base := ch * h * w
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				bestIdx := base + (oy*size)*w + ox*size
				best := input.data[bestIdx]
				for py := 0; py < size; py++ {
					rowBase := base + (oy*size+py)*w + ox*size
					for px := 0; px < size; px++ {
						if v := input.data[rowBase+px]; v > best {
							best = v
							bestIdx = rowBase + px
						}
					}
				}
				out.data[oi] = best
				argmax[oi] = bestIdx
				oi++
			}
		}
	}
	return out, argmax
}

// MaxPool2DBatchInto max-pools a stacked (B, C, H, W) float32 batch into
// dst of shape (B, C, H/size, W/size) with MaxPool2D's first-wins
// comparisons and no argmax bookkeeping — the inference-only form the
// batched forward pass uses. Every element of dst is overwritten.
func MaxPool2DBatchInto(dst, batch *Tensor32, size int) {
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
	// A stacked batch is b·c planes of h×w, pooled plane by plane.
	src, outW := batch.data, w/size
	oi := 0
	for base := 0; base < len(src); base += h * w {
		for oy := 0; oy < h/size; oy++ {
			out := dst.data[oi : oi+outW : oi+outW]
			if size == 2 {
				r0 := src[base+2*oy*w : base+2*oy*w+w]
				r1 := src[base+(2*oy+1)*w : base+(2*oy+1)*w+w]
				for ox := range out {
					out[ox] = max4of32(r0[2*ox], r0[2*ox+1], r1[2*ox], r1[2*ox+1])
				}
			} else {
				for ox := range out {
					best := src[base+oy*size*w+ox*size]
					for py := 0; py < size; py++ {
						for _, v := range src[base+(oy*size+py)*w+ox*size:][:size] {
							if v > best {
								best = v
							}
						}
					}
					out[ox] = best
				}
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
