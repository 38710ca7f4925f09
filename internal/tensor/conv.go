package tensor

// Im2Col lowers a CHW input into a matrix with one column per output
// position and one row per (channel, kernel row, kernel col) triple: the
// one-sample case of Im2ColBatchInto.
func Im2Col(input *Tensor, kH, kW, stride int) *Tensor {
	inC, inH, inW := input.shape[0], input.shape[1], input.shape[2]
	cols := New(inC*kH*kW, ((inH-kH)/stride+1)*((inW-kW)/stride+1))
	Im2ColBatchInto(cols, input.Reshape(1, inC, inH, inW), kH, kW, stride)
	return cols
}

// Im2ColBatchInto lowers a stacked (B, C, H, W) input batch into one
// column matrix dst of shape (C*kH*kW, B*outH*outW): sample b occupies
// the column block [b*outH*outW, (b+1)*outH*outW), so a single W×cols
// GEMM computes the convolution of the whole batch. Every element of dst
// is overwritten. Conv2DBatchInto gathers the same columns, in float32,
// without ever storing the matrix.
func Im2ColBatchInto(dst, batch *Tensor, kH, kW, stride int) {
	if batch.Rank() != 4 {
		panic("tensor: Im2ColBatchInto requires a rank-4 (B,C,H,W) batch")
	}
	b, inC, inH, inW := batch.shape[0], batch.shape[1], batch.shape[2], batch.shape[3]
	outH := (inH-kH)/stride + 1
	outW := (inW-kW)/stride + 1
	if outH <= 0 || outW <= 0 {
		panic("tensor: Im2ColBatchInto kernel larger than input")
	}
	p := outH * outW
	if dst.shape[0] != inC*kH*kW || dst.shape[1] != b*p {
		panic("tensor: Im2ColBatchInto shape mismatch")
	}
	sampleLen := inC * inH * inW
	row := 0
	for c := 0; c < inC; c++ {
		chanBase := c * inH * inW
		for ky := 0; ky < kH; ky++ {
			for kx := 0; kx < kW; kx++ {
				rowData := dst.data[row*b*p : (row+1)*b*p]
				for s := 0; s < b; s++ {
					src := batch.data[s*sampleLen : (s+1)*sampleLen]
					di := s * p
					for oy := 0; oy < outH; oy++ {
						srcBase := chanBase + (oy*stride+ky)*inW + kx
						if stride == 1 {
							copy(rowData[di:di+outW], src[srcBase:srcBase+outW])
							di += outW
							continue
						}
						for ox := 0; ox < outW; ox++ {
							rowData[di] = src[srcBase+ox*stride]
							di++
						}
					}
				}
				row++
			}
		}
	}
}

// Col2Im is the adjoint of Im2Col: it scatters (accumulates) a column
// matrix of shape (inC*kH*kW, outH*outW) back into a CHW tensor of shape
// (inC, inH, inW). Overlapping positions sum, which is exactly the input
// gradient of a convolution.
func Col2Im(cols *Tensor, inC, inH, inW, kH, kW, stride int) *Tensor {
	outH := (inH-kH)/stride + 1
	outW := (inW-kW)/stride + 1
	if cols.shape[0] != inC*kH*kW || cols.shape[1] != outH*outW {
		panic("tensor: Col2Im shape mismatch")
	}
	img := New(inC, inH, inW)
	row := 0
	for c := 0; c < inC; c++ {
		chanBase := c * inH * inW
		for ky := 0; ky < kH; ky++ {
			for kx := 0; kx < kW; kx++ {
				src := cols.data[row*outH*outW : (row+1)*outH*outW]
				si := 0
				for oy := 0; oy < outH; oy++ {
					dstBase := chanBase + (oy*stride+ky)*inW + kx
					for ox := 0; ox < outW; ox++ {
						img.data[dstBase+ox*stride] += src[si]
						si++
					}
				}
				row++
			}
		}
	}
	return img
}

// Conv2DNaive is a direct four-loop reference convolution (cross-
// correlation, no padding) of a CHW input with OIHW kernels, used to
// validate the im2col path in tests. It is deliberately simple and slow.
func Conv2DNaive(input, kernel *Tensor, bias []float64, stride int) *Tensor {
	outC, inC, kH, kW := kernel.shape[0], kernel.shape[1], kernel.shape[2], kernel.shape[3]
	inH, inW := input.shape[1], input.shape[2]
	outH := (inH-kH)/stride + 1
	outW := (inW-kW)/stride + 1
	out := New(outC, outH, outW)
	for oc := 0; oc < outC; oc++ {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				sum := 0.0
				if bias != nil {
					sum = bias[oc]
				}
				for ic := 0; ic < inC; ic++ {
					for ky := 0; ky < kH; ky++ {
						for kx := 0; kx < kW; kx++ {
							sum += input.At(ic, oy*stride+ky, ox*stride+kx) *
								kernel.At(oc, ic, ky, kx)
						}
					}
				}
				out.Set(sum, oc, oy, ox)
			}
		}
	}
	return out
}
