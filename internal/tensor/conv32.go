package tensor

// Conv2DBatchInto convolves a stacked (B, C, H, W) float32 batch with
// OIHW kernels (no padding) and writes the batch-major result into dst:
// the (B, outC, outH, outW) map plus bias (nil for none), clamped at
// zero when relu is set, or, when pool2 is set, its 2×2 max pool of
// shape (B, outC, outH/2, outW/2) — outH and outW must then be even.
// Every element of dst is overwritten.
//
// The product kernel (outC, K) × im2col(batch) (K, B·outH·outW) is
// computed stripe by stripe and the column matrix never exists: a stripe
// is a run of output rows, across samples, of about blockN columns; its
// rows of the virtual column matrix are gathered straight from the input
// into micro panels, multiplied into an outC × width tile that stays in
// cache, and the tile is folded into dst by the epilogue. Stripes are
// the unit of parallelism, so gather, product and epilogue all run on
// every core. Each output element is the float32 contract's
// blockK-panelled chain over one sample's window, plus the bias, so a
// sample's outputs do not depend on the batch around it. The epilogue
// runs in the unfused layers' order: add the bias, clamp as nn.ReLU does
// (v > 0 ? v : +0), then take the window maximum in MaxPool2D's
// first-wins order. Taking the maximum on the raw products and clamping
// the winner would agree on finite values, but not on NaN, which the
// clamp maps to +0 and a maximum propagates.
func Conv2DBatchInto(dst, batch, kernel *Tensor32, bias []float32, stride int, relu, pool2 bool) {
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
	step int // output rows per stored row: 2 under the 2×2 pool, else 1
}

// stripe computes the global output rows [r0, r1) — row r is row r%outH
// of sample r/outH — of every channel.
func (g *convGeom) stripe(sc *gemmScratch, dst, in, w, bias []float32, r0, r1 int, relu bool) {
	cols := (r1 - r0) * g.outW
	ld := (cols + microN32 - 1) &^ (microN32 - 1)
	sc.pack32, sc.tile = grow(sc.pack32, blockK*ld), grow(sc.tile, g.outC*ld)
	sc.base, sc.rows = grow(sc.base, ld), grow(sc.rows, g.k)
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
	// rows[t] is the offset of im2col row t — input channel t/(kH·kW),
	// kernel offset (t/kW%kH, t%kW) — from a window's origin. It ascends
	// with t.
	t := 0
	for c := 0; c < g.inC; c++ {
		for ky := 0; ky < g.kH; ky++ {
			for kx := 0; kx < g.kW; kx++ {
				sc.rows[t] = (c*g.inH+ky)*g.inW + kx
				t++
			}
		}
	}
	for pc := 0; pc < g.k; pc += blockK {
		kb, flags := min(blockK, g.k-pc), 0
		if pc > 0 {
			flags = epiAcc
		}
		gather32(sc.pack32, in, sc.base, sc.rows[pc:pc+kb])
		gemmPacked32(sc.tile, 0, ld, w, pc, g.k, g.outC, sc.pack32, kb, ld, nil, 0, flags)
	}
	// The epilogue takes each channel's share of one sample's rows, a
	// run of whole output rows (row pairs under pool2) that lies
	// contiguously both in the tile and in dst, in one call.
	for r := r0; r < r1; {
		s, oy := r/g.outH, r%g.outH
		end := min(r1, r-oy+g.outH)
		for oc := 0; oc < g.outC; oc++ {
			var b float32
			if bias != nil {
				b = bias[oc]
			}
			run := sc.tile[oc*ld+(r-r0)*g.outW : oc*ld+(end-r0)*g.outW]
			out := dst[((s*g.outC+oc)*g.outH+oy)*g.outW/g.step/g.step:][:len(run)/g.step/g.step]
			switch {
			case g.step == 2:
				pool2Rows32(out, run, g.outW, b, relu)
			case relu:
				for i, v := range run {
					out[i] = clamp32(v + b)
				}
			default:
				for i, v := range run {
					out[i] = v + b
				}
			}
		}
		r = end
	}
}

// gather32 packs the im2col rows whose offsets from a window's origin
// are rows, for the columns whose window origins are base, as 16-wide
// micro panels. Offsets ascend along a stripe, so a panel half whose
// ends are 7 apart reads 8 adjacent inputs per row; a panel whose two
// halves are both adjacent — every panel of a map whose width is a
// multiple of 8, at stride 1 — is gathered with two 8-wide moves per
// row.
func gather32(pack, in []float32, base, rows []int) {
	kb := len(rows)
	for jt := 0; jt < len(base); jt += microN32 {
		dst := pack[jt*kb : (jt+microN32)*kb]
		bs := base[jt : jt+microN32 : jt+microN32]
		if bs[7]-bs[0] == 7 && bs[15]-bs[8] == 7 {
			gatherHalves(dst, in[bs[0]:], in[bs[8]:], rows)
			continue
		}
		for t, off := range rows {
			d := dst[t*microN32 : t*microN32+microN32 : t*microN32+microN32]
			for i, b := range bs {
				d[i] = in[off+b]
			}
		}
	}
}

// gatherHalves copies src0[rows[t]:rows[t]+8] to dst[16t:16t+8] and
// src1[rows[t]:rows[t]+8] to dst[16t+8:16t+16] for every t; rows
// ascends.
func gatherHalves(dst, src0, src1 []float32, rows []int) {
	if kernelLevel == KernelGo {
		for t, off := range rows {
			d := dst[t*microN32 : t*microN32+microN32 : t*microN32+microN32]
			copy(d[:8], src0[off:off+8])
			copy(d[8:], src1[off:off+8])
		}
		return
	}
	// The highest element the assembly touches: rows ascends, so its
	// last offset is the furthest one read.
	last := rows[len(rows)-1]
	_, _, _ = dst[len(rows)*microN32-1], src0[last+7], src1[last+7]
	gather16ps(&dst[0], &src0[0], &src1[0], &rows[0], len(rows))
}

// pool2Rows32 is the Conv→(ReLU→)MaxPool(2) epilogue of a run of row
// pairs: in holds rows of w products, out their pooled rows of w/2, and
// output i of pair p is the 2×2 window maximum over in[2p·w + 2i],
// in[2p·w + 2i+1], in[(2p+1)·w + 2i] and in[(2p+1)·w + 2i+1], each plus b
// and, when relu is set, clamped — the unfused layers' order. Under relu
// one assembly call takes every whole group of four outputs of the run.
func pool2Rows32(out, in []float32, w int, b float32, relu bool) {
	half, quads := w/2, 0
	if relu && kernelLevel >= KernelAVX2 {
		if quads = half / 4; quads > 0 {
			_, _ = out[len(out)-half+4*quads-1], in[len(in)-w+8*quads-1]
			pool2ReLUps(&out[0], &in[0], len(out)/half, quads, w, b)
		}
	}
	if 4*quads == half {
		return
	}
	for p := 0; p < len(out)/half; p++ {
		r0, r1, o := in[2*p*w:(2*p+1)*w], in[(2*p+1)*w:(2*p+2)*w], out[p*half:(p+1)*half]
		for i := 4 * quads; i < half; i++ {
			if relu {
				o[i] = max4of32(clamp32(r0[2*i]+b), clamp32(r0[2*i+1]+b), clamp32(r1[2*i]+b), clamp32(r1[2*i+1]+b))
			} else {
				o[i] = max4of32(r0[2*i]+b, r0[2*i+1]+b, r1[2*i]+b, r1[2*i+1]+b)
			}
		}
	}
}

// clamp32 is nn.ReLU's rectification, v > 0 ? v : +0, which maps -0 and
// NaN to +0.
func clamp32(v float32) float32 {
	if v > 0 {
		return v
	}
	return 0
}

// max4of32 is the maximum of one 2×2 pooling window in MaxPool2D's
// first-wins order: a later value replaces the best so far only when it
// is greater, so a NaN is kept only when it comes first.
func max4of32(a, b, c, d float32) float32 {
	best := a
	if b > best {
		best = b
	}
	if c > best {
		best = c
	}
	if d > best {
		best = d
	}
	return best
}
