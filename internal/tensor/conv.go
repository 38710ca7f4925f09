package tensor

// Conv2D computes a 2-D cross-correlation (the "convolution" of deep
// learning) of a CHW input with a set of OIHW kernels, with the given
// stride and no padding. Input shape (inC, inH, inW), kernel shape
// (outC, inC, kH, kW), bias length outC; the result has shape
// (outC, outH, outW) with outH = (inH-kH)/stride + 1.
//
// The implementation lowers the input to a column matrix (im2col) and uses
// the blocked MatMul, which is the standard high-throughput formulation.
func Conv2D(input, kernel *Tensor, bias []float64, stride int) *Tensor {
	outC, inC, kH, kW := kernel.shape[0], kernel.shape[1], kernel.shape[2], kernel.shape[3]
	if input.Rank() != 3 || input.shape[0] != inC {
		panic("tensor: Conv2D input/kernel channel mismatch")
	}
	inH, inW := input.shape[1], input.shape[2]
	outH := (inH-kH)/stride + 1
	outW := (inW-kW)/stride + 1
	if outH <= 0 || outW <= 0 {
		panic("tensor: Conv2D kernel larger than input")
	}

	cols := Im2Col(input, kH, kW, stride) // (inC*kH*kW, outH*outW)
	w := kernel.Reshape(outC, inC*kH*kW)
	out := MatMul(w, cols) // (outC, outH*outW)
	if bias != nil {
		if len(bias) != outC {
			panic("tensor: Conv2D bias length mismatch")
		}
		for c := 0; c < outC; c++ {
			row := out.data[c*outH*outW : (c+1)*outH*outW]
			b := bias[c]
			for i := range row {
				row[i] += b
			}
		}
	}
	return out.Reshape(outC, outH, outW)
}

// Im2Col lowers a CHW input into a matrix with one column per output
// position and one row per (channel, kernel row, kernel col) triple.
func Im2Col(input *Tensor, kH, kW, stride int) *Tensor {
	inC, inH, inW := input.shape[0], input.shape[1], input.shape[2]
	outH := (inH-kH)/stride + 1
	outW := (inW-kW)/stride + 1
	cols := New(inC*kH*kW, outH*outW)
	row := 0
	for c := 0; c < inC; c++ {
		chanBase := c * inH * inW
		for ky := 0; ky < kH; ky++ {
			for kx := 0; kx < kW; kx++ {
				dst := cols.data[row*outH*outW : (row+1)*outH*outW]
				di := 0
				for oy := 0; oy < outH; oy++ {
					srcBase := chanBase + (oy*stride+ky)*inW + kx
					for ox := 0; ox < outW; ox++ {
						dst[di] = input.data[srcBase+ox*stride]
						di++
					}
				}
				row++
			}
		}
	}
	return cols
}

// Im2ColBatchInto lowers a stacked (B, C, H, W) input batch into one
// column matrix dst of shape (C*kH*kW, B*outH*outW): sample b occupies
// the column block [b*outH*outW, (b+1)*outH*outW), so a single W×cols
// GEMM computes the convolution of the whole batch. Every element of dst
// is overwritten. Conv2DBatchInto multiplies by this matrix without ever
// storing it; this function is the reference lowering its gather is
// tested against.
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

// Conv2DBatchInto convolves a stacked (B, C, H, W) batch with OIHW
// kernels (no padding) and writes the batch-major result into dst: the
// (B, outC, outH, outW) map plus bias (nil for none), clamped at zero
// when relu is set, or, when pool2 is set, its 2×2 max pool of shape
// (B, outC, outH/2, outW/2) — outH and outW must then be even. Every
// element of dst is overwritten.
//
// The product kernel (outC, K) × im2col(batch) (K, B·outH·outW) is
// computed stripe by stripe and the column matrix never exists: a stripe
// is a run of output rows, across samples, of about blockN columns; its
// rows of the virtual column matrix are gathered straight from the input
// into micro panels, multiplied into an outC × width tile that stays in
// cache, and the tile is folded into dst by the epilogue. Stripes are
// the unit of parallelism, so gather, product and epilogue all run on
// every core. Each output element is the same blockK-panelled FMA chain
// MatMul(kernel, Im2Col(sample)) computes, plus the bias — bit-identical
// to the per-sample Conv2D → ReLU → MaxPool2D sequence: x ↦ x+b and the
// clamp are monotone non-decreasing (also under float rounding), so the
// window maximum may be taken on the raw products and bias and clamp
// applied once to the winner.
func Conv2DBatchInto(dst, batch, kernel *Tensor, bias []float64, stride int, relu, pool2 bool) {
	if batch.Rank() != 4 || kernel.Rank() != 4 || batch.shape[1] != kernel.shape[1] {
		panic("tensor: Conv2DBatchInto wants a (B,C,H,W) batch and (outC,C,kH,kW) kernels")
	}
	g := convGeom{inC: batch.shape[1], inH: batch.shape[2], inW: batch.shape[3],
		kH: kernel.shape[2], kW: kernel.shape[3], stride: stride, outC: kernel.shape[0]}
	g.outH = (g.inH-g.kH)/stride + 1
	g.outW = (g.inW-g.kW)/stride + 1
	if g.outH <= 0 || g.outW <= 0 {
		panic("tensor: Conv2DBatchInto kernel larger than input")
	}
	g.k, g.step = g.inC*g.kH*g.kW, 1
	rows, outLen := batch.shape[0]*g.outH, batch.shape[0]*g.outC*g.outH*g.outW
	if pool2 {
		if g.outH%2 != 0 || g.outW%2 != 0 {
			panic("tensor: Conv2DBatchInto output not divisible by the 2x2 window")
		}
		g.step, outLen = 2, outLen/4
	}
	if dst.Len() != outLen || (bias != nil && len(bias) != g.outC) {
		panic("tensor: Conv2DBatchInto size mismatch")
	}
	// Equal stripes of whole output rows (row pairs under pool2): as few
	// as blockN columns each allow, rounded up to a multiple of the
	// workers so that a width-1 pass still splits evenly.
	work := g.outC * g.k * rows * g.outW
	workers := workersFor(work)
	stripes := ((rows*g.outW+blockN-1)/blockN + workers - 1) / workers * workers
	per := ((rows+stripes-1)/stripes + g.step - 1) / g.step * g.step
	stripes = (rows + per - 1) / per
	parallelRange(stripes, 1, work, func(lo, hi int) {
		sc := gemmScratches.Get().(*gemmScratch)
		for s := lo; s < hi; s++ {
			g.stripe(sc, dst.data, batch.data, kernel.data, bias, s*per, min((s+1)*per, rows), relu)
		}
		gemmScratches.Put(sc)
	})
}

// convGeom is the geometry of one batched convolution.
type convGeom struct {
	inC, inH, inW, kH, kW, stride, outC, outH, outW int

	k    int // inC·kH·kW, the rows of the virtual im2col matrix
	step int // output rows per epilogue step: 2 under the 2×2 pool, else 1
}

// stripe computes the global output rows [r0, r1) — row r is row r%outH
// of sample r/outH — of every channel.
func (g *convGeom) stripe(sc *gemmScratch, dst, in, w, bias []float64, r0, r1 int, relu bool) {
	cols := (r1 - r0) * g.outW
	ld := (cols + microN - 1) &^ (microN - 1)
	sc.pack, sc.tile, sc.base = grow(sc.pack, blockK*ld), grow(sc.tile, g.outC*ld), grow(sc.base, ld)
	// base[j] is the input offset of column j's window; the columns that
	// pad the last micro panel repeat column 0 (their products are never
	// read, and real data keeps denormals and NaNs out of the kernel).
	j := 0
	for r := r0; r < r1; r++ {
		off := (r/g.outH*g.inC*g.inH + r%g.outH*g.stride) * g.inW
		for ox := 0; ox < g.outW; ox++ {
			sc.base[j] = off + ox*g.stride
			j++
		}
	}
	for ; j < ld; j++ {
		sc.base[j] = sc.base[0]
	}
	for pc := 0; pc < g.k; pc += blockK {
		kb := min(blockK, g.k-pc)
		g.gather(sc.pack, in, sc.base, pc, kb)
		gemmPacked(sc.tile, 0, ld, 1, w, pc, g.k, g.outC, sc.pack, kb, ld, pc == 0)
	}
	for oc := 0; oc < g.outC; oc++ {
		b := 0.0
		if bias != nil {
			b = bias[oc]
		}
		row := sc.tile[oc*ld : oc*ld+cols]
		for r := r0; r < r1; r += g.step {
			seg := row[(r-r0)*g.outW:]
			s, oy := r/g.outH, r%g.outH
			switch {
			case g.step == 2:
				out := dst[((s*g.outC+oc)*g.outH/2+oy/2)*(g.outW/2):][:g.outW/2]
				r0w, r1w := seg[:g.outW], seg[g.outW:2*g.outW]
				for ox := range out {
					// The builtin max compiles branchless (random activations
					// mispredict a compare-and-branch ladder about half the time).
					v := max(max(r0w[2*ox], r0w[2*ox+1]), max(r1w[2*ox], r1w[2*ox+1])) + b
					if relu {
						v = max(v, 0)
					}
					out[ox] = v
				}
			case relu:
				out := dst[((s*g.outC+oc)*g.outH+oy)*g.outW:][:g.outW]
				for ox := range out {
					out[ox] = max(seg[ox]+b, 0)
				}
			default:
				out := dst[((s*g.outC+oc)*g.outH+oy)*g.outW:][:g.outW]
				for ox := range out {
					out[ox] = seg[ox] + b
				}
			}
		}
	}
}

// gather packs rows [pc, pc+kb) of the virtual im2col matrix — row t is
// input channel t/(kH·kW), kernel offset (t/kW%kH, t%kW) — for the
// columns whose window offsets are base, as micro panels.
func (g *convGeom) gather(pack, in []float64, base []int, pc, kb int) {
	c0, ky0, kx0 := pc/(g.kH*g.kW), pc/g.kW%g.kH, pc%g.kW
	for jt := 0; jt < len(base); jt += microN {
		dst := pack[jt*kb : (jt+microN)*kb]
		bs := base[jt : jt+microN : jt+microN]
		// Offsets ascend along a stripe, so a panel whose ends are 7 apart
		// reads 8 adjacent inputs per row: one bounds check, not eight.
		adjacent := bs[7]-bs[0] == microN-1
		c, ky, kx := c0, ky0, kx0
		for t := 0; t < kb; t++ {
			off := (c*g.inH+ky)*g.inW + kx
			d := dst[t*microN : t*microN+microN : t*microN+microN]
			if adjacent {
				s := in[off+bs[0] : off+bs[0]+microN : off+bs[0]+microN]
				d[0], d[1], d[2], d[3] = s[0], s[1], s[2], s[3]
				d[4], d[5], d[6], d[7] = s[4], s[5], s[6], s[7]
			} else {
				d[0], d[1], d[2], d[3] = in[off+bs[0]], in[off+bs[1]], in[off+bs[2]], in[off+bs[3]]
				d[4], d[5], d[6], d[7] = in[off+bs[4]], in[off+bs[5]], in[off+bs[6]], in[off+bs[7]]
			}
			if kx++; kx == g.kW {
				if kx, ky = 0, ky+1; ky == g.kH {
					ky, c = 0, c+1
				}
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

// Conv2DNaive is a direct four-loop reference convolution used to validate
// the im2col path in tests. It is deliberately simple and slow.
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
