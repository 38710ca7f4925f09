package tensor

import (
	"math"
	"runtime"
	"testing"

	"napmon/internal/rng"
)

// TestTinyDenseNeverForks pins the claim that fleet_tiny's 16→64→4
// dense nets never fork: at a full chunk (nn.MaxChunk = 64 inputs; nn
// imports tensor, so the value is spelled here) the wider layer is
// 64·16·64 multiply-accumulates, below matmulParallelThreshold.
func TestTinyDenseNeverForks(t *testing.T) {
	const maxChunk = 64
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)
	for _, l := range [][2]int{{16, 64}, {64, 4}} {
		if w := workersFor(maxChunk * l[0] * l[1]); w != 1 {
			t.Fatalf("a %d→%d layer at width %d runs on %d goroutines", l[0], l[1], maxChunk, w)
		}
	}
}

// TestMatMulBlockedMatchesNaive sweeps random shapes — including inner
// dimensions beyond one k panel and edge sizes the 4×4 tiling does not
// cover — and checks the blocked kernel against the triple-loop
// reference within tight relative tolerance.
func TestMatMulBlockedMatchesNaive(t *testing.T) {
	r := rng.New(42)
	for trial := 0; trial < 30; trial++ {
		m := 1 + r.Intn(70)
		k := 1 + r.Intn(600) // crosses the blockK=256 panel boundary
		n := 1 + r.Intn(70)
		a := randTensor(r, m, k)
		b := randTensor(r, k, n)
		got := New(m, n)
		want := New(m, n)
		MatMulInto(got, a, b)
		MatMulNaiveInto(want, a, b)
		for i := range want.Data() {
			g, w := got.Data()[i], want.Data()[i]
			if math.Abs(g-w) > 1e-9*(1+math.Abs(w)) {
				t.Fatalf("(%d,%d,%d) elem %d: blocked %v, naive %v", m, k, n, i, g, w)
			}
		}
	}
}

// TestMatMulDeterministicAcrossWorkers pins the bit-stability guarantee:
// the same product computed single-threaded and with the goroutine row
// split must agree exactly, because the panel-subtotal accumulation
// order is independent of how rows land on tiles or workers.
func TestMatMulDeterministicAcrossWorkers(t *testing.T) {
	r := rng.New(7)
	a := randTensor(r, 67, 530)
	b := randTensor(r, 530, 45)
	serial := New(67, 45)
	prev := runtime.GOMAXPROCS(1)
	MatMulInto(serial, a, b)
	runtime.GOMAXPROCS(8)
	if workersFor(67*530*45) < 2 {
		t.Fatal("the product is below matmulParallelThreshold: nothing forks")
	}
	parallel := New(67, 45)
	MatMulInto(parallel, a, b)
	runtime.GOMAXPROCS(prev)
	for i := range serial.Data() {
		if serial.Data()[i] != parallel.Data()[i] {
			t.Fatalf("elem %d differs across worker counts: %v vs %v",
				i, serial.Data()[i], parallel.Data()[i])
		}
	}
}

// TestMatMulTransBMatchesMatVec pins the dense-batch contract: row i of
// A×Bᵀ must equal MatVec(B, row i of A) bit for bit, since ForwardBatch
// relies on exactly this equivalence against the per-sample path. Rows
// below the level's gemvWidth take the matrix-vector kernel too, wider
// products the packed GEMM.
func TestMatMulTransBMatchesMatVec(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		r := rng.New(9)
		for trial := 0; trial < 20; trial++ {
			m := 1 + r.Intn(19)
			k := 1 + r.Intn(400)
			n := 1 + r.Intn(50)
			a := randTensor(r, m, k)
			b := randTensor(r, n, k)
			c := New(m, n)
			MatMulTransBInto(c, a, b)
			for i := 0; i < m; i++ {
				row := FromSlice(append([]float64(nil), a.Data()[i*k:(i+1)*k]...), k)
				want := MatVec(b, row.Data())
				for j := 0; j < n; j++ {
					if got := c.At(i, j); got != want[j] {
						t.Fatalf("(%d,%d,%d) row %d col %d: transB %v, matvec %v", m, k, n, i, j, got, want[j])
					}
				}
			}
		}
	})
}

// TestMatMulTransBBiasReLUFusion checks the fused epilogue against the
// unfused product followed by an explicit bias add and nn.ReLU's
// rectification, which maps NaN to +0: row 0 of A carries a NaN and
// row 1 an infinity.
func TestMatMulTransBBiasReLUFusion(t *testing.T) {
	r := rng.New(11)
	m, k, n := 13, 37, 21
	a := randTensor(r, m, k)
	b := randTensor(r, n, k)
	a.Data()[3], a.Data()[k+5] = math.NaN(), math.Inf(1)
	bias := make([]float64, n)
	for i := range bias {
		bias[i] = r.NormScaled(0, 1)
	}
	fused := New(m, n)
	MatMulTransBBiasInto(fused, a, b, bias, true)
	plain := New(m, n)
	MatMulTransBInto(plain, a, b)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			want := plain.At(i, j) + bias[j]
			if !(want > 0) {
				want = 0
			}
			if got := fused.At(i, j); got != want {
				t.Fatalf("elem (%d,%d): fused %v, reference %v", i, j, got, want)
			}
		}
	}
}

// TestIm2ColBatchMatchesIm2Col checks that each sample's column block of
// the batched lowering equals the single-sample Im2Col exactly.
func TestIm2ColBatchMatchesIm2Col(t *testing.T) {
	r := rng.New(13)
	for trial := 0; trial < 10; trial++ {
		bsz := 1 + r.Intn(5)
		c := 1 + r.Intn(3)
		kh := 1 + r.Intn(3)
		kw := 1 + r.Intn(3)
		stride := 1 + r.Intn(2)
		h := kh + r.Intn(6)
		w := kw + r.Intn(6)
		batch := randTensor(r, bsz, c, h, w)
		outH := (h-kh)/stride + 1
		outW := (w-kw)/stride + 1
		p := outH * outW
		cols := New(c*kh*kw, bsz*p)
		Im2ColBatchInto(cols, batch, kh, kw, stride)
		sampleLen := c * h * w
		for s := 0; s < bsz; s++ {
			sample := FromSlice(batch.Data()[s*sampleLen:(s+1)*sampleLen], c, h, w)
			want := Im2Col(sample, kh, kw, stride)
			for row := 0; row < cols.Dim(0); row++ {
				for col := 0; col < p; col++ {
					if got := cols.At(row, s*p+col); got != want.At(row, col) {
						t.Fatalf("sample %d row %d col %d: batch %v, single %v",
							s, row, col, got, want.At(row, col))
					}
				}
			}
		}
	}
}

// convCase is one random batched-convolution problem. The geometries
// cover what the stripe driver has to get right: strides 1 and 2, channel
// counts that are not a multiple of the 4-row micro tile, K beyond one
// blockK panel, maps wider than a micro panel and narrower than one, and
// stripes that span several samples.
type convCase struct {
	batch, kernel *Tensor
	bias          []float64
	stride        int
}

func randConvCase(r *rng.Source, even bool) convCase {
	bsz, inC, outC := 1+r.Intn(5), 1+r.Intn(3), 1+r.Intn(9)
	kh, kw, stride := 1+r.Intn(3), 1+r.Intn(3), 1+r.Intn(2)
	if r.Bool(0.3) {
		inC, kh, kw = 30+r.Intn(4), 3, 3 // K = 270..297 > blockK
	}
	outH, outW := 1+r.Intn(12), 1+r.Intn(12)
	if even {
		outH, outW = outH+outH%2, outW+outW%2
	}
	c := convCase{
		batch:  randTensor(r, bsz, inC, (outH-1)*stride+kh+r.Intn(stride), (outW-1)*stride+kw+r.Intn(stride)),
		kernel: randTensor(r, outC, inC, kh, kw),
		stride: stride,
	}
	if r.Bool(0.8) {
		c.bias = randTensor(r, outC).Data()
	}
	return c
}

// perSample is the reference the batched driver must reproduce bit for
// bit: per sample Im2Col → MatMul → bias → ReLU → MaxPool2D, stacked.
func (c convCase) perSample(relu, pool2 bool) *Tensor {
	bsz, inC, h, w := c.batch.Dim(0), c.batch.Dim(1), c.batch.Dim(2), c.batch.Dim(3)
	outC, kh, kw := c.kernel.Dim(0), c.kernel.Dim(2), c.kernel.Dim(3)
	outH, outW := (h-kh)/c.stride+1, (w-kw)/c.stride+1
	var out []float64
	for s := 0; s < bsz; s++ {
		sample := FromSlice(c.batch.Data()[s*inC*h*w:(s+1)*inC*h*w], inC, h, w)
		y := MatMul(c.kernel.Reshape(outC, inC*kh*kw), Im2Col(sample, kh, kw, c.stride))
		c.epilogue(y.Data(), outC, outH*outW, relu)
		if pool2 {
			y, _ = MaxPool2D(y.Reshape(outC, outH, outW), 2)
		}
		out = append(out, y.Data()...)
	}
	return FromSlice(out, len(out))
}

// wholeBatch is the schedule the stripe driver replaced: Im2ColBatchInto
// → MatMulInto → the same epilogue on the whole (outC, B·area) product.
func (c convCase) wholeBatch(relu, pool2 bool) *Tensor {
	bsz, inC, h, w := c.batch.Dim(0), c.batch.Dim(1), c.batch.Dim(2), c.batch.Dim(3)
	outC, kh, kw := c.kernel.Dim(0), c.kernel.Dim(2), c.kernel.Dim(3)
	outH, outW := (h-kh)/c.stride+1, (w-kw)/c.stride+1
	area := outH * outW
	cols := New(inC*kh*kw, bsz*area)
	Im2ColBatchInto(cols, c.batch, kh, kw, c.stride)
	prod := New(outC, bsz*area)
	MatMulInto(prod, c.kernel.Reshape(outC, inC*kh*kw), cols)
	c.epilogue(prod.Data(), outC, bsz*area, relu)
	out := New(bsz, outC, outH, outW)
	for s := 0; s < bsz; s++ {
		for oc := 0; oc < outC; oc++ {
			copy(out.Data()[(s*outC+oc)*area:], prod.Data()[oc*bsz*area+s*area:][:area])
		}
	}
	if pool2 {
		pooled := New(bsz, outC, outH/2, outW/2)
		MaxPool2DBatchInto(pooled, out, 2)
		out = pooled
	}
	return out
}

// epilogue adds bias[oc] to row oc of the (outC, n) matrix y and
// rectifies it the way nn.ReLU does.
func (c convCase) epilogue(y []float64, outC, n int, relu bool) {
	for oc := 0; oc < outC; oc++ {
		for i := oc * n; i < (oc+1)*n; i++ {
			if c.bias != nil {
				y[i] += c.bias[oc]
			}
			if relu && !(y[i] > 0) {
				y[i] = 0
			}
		}
	}
}

func (c convCase) check(t *testing.T, relu, pool2 bool) {
	t.Helper()
	want := c.perSample(relu, pool2)
	got := New(want.Len())
	for i := range got.Data() {
		got.Data()[i] = math.NaN() // every element must be overwritten
	}
	Conv2DBatchInto(got, c.batch, c.kernel, c.bias, c.stride, relu, pool2)
	whole := c.wholeBatch(relu, pool2)
	for i, w := range want.Data() {
		if !sameFloat(got.Data()[i], w) || !sameFloat(whole.Data()[i], w) {
			t.Fatalf("batch %v kernel %v stride %d relu %v pool2 %v elem %d: fused %v, whole-batch %v, per-sample %v",
				c.batch.Shape(), c.kernel.Shape(), c.stride, relu, pool2, i, got.Data()[i], whole.Data()[i], w)
		}
	}
}

// sameFloat is bit equality up to NaN payloads: any NaN equals any NaN.
func sameFloat(a, b float64) bool { return a == b || a != a && b != b }

// TestAddBiasUnstack checks the conv epilogue without pooling: the
// stripe-fused driver's products must land batch-major with the channel
// bias added (and rectified when asked), equal to the per-sample
// reference and to the whole-batch lowering it replaced, on every
// kernel level.
func TestAddBiasUnstack(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		r := rng.New(90)
		for trial := 0; trial < 40; trial++ {
			c := randConvCase(r, false)
			c.check(t, false, false)
			c.check(t, true, false)
		}
	})
}

// TestMaxPool2DBatchMatchesSingle checks the inference-only batched
// pooling against the per-sample kernel.
func TestMaxPool2DBatchMatchesSingle(t *testing.T) {
	r := rng.New(17)
	const bsz, c, h, w, size = 4, 3, 6, 8, 2
	batch := randTensor(r, bsz, c, h, w)
	out := New(bsz, c, h/size, w/size)
	MaxPool2DBatchInto(out, batch, size)
	sampleLen := c * h * w
	outLen := c * (h / size) * (w / size)
	for s := 0; s < bsz; s++ {
		sample := FromSlice(batch.Data()[s*sampleLen:(s+1)*sampleLen], c, h, w)
		want, _ := MaxPool2D(sample, size)
		for i, v := range want.Data() {
			if got := out.Data()[s*outLen+i]; got != v {
				t.Fatalf("sample %d elem %d: batch %v, single %v", s, i, got, v)
			}
		}
	}
}

// TestAddBiasReLUPool2Fused pins the fused bias+ReLU+2×2-max epilogue
// against its unfused composition, across random shapes, with and
// without bias and rectification, on every kernel level.
func TestAddBiasReLUPool2Fused(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		r := rng.New(91)
		for trial := 0; trial < 40; trial++ {
			c := randConvCase(r, true)
			c.check(t, true, true)
			c.check(t, false, true)
		}
	})
}

// TestConv2DBatchWideMap drives a map wider than one blockN stripe, so a
// stripe is a single output row (a row pair under pooling) and the
// scratch grows past its usual size.
func TestConv2DBatchWideMap(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		r := rng.New(92)
		c := convCase{batch: randTensor(r, 2, 1, 5, blockN+45), kernel: randTensor(r, 3, 1, 2, 2), stride: 1}
		c.check(t, true, false)
		c.check(t, true, true)
	})
}

// TestConv2DBatchNonFinite puts NaN, +Inf and -Inf into the input at
// fixed positions. Every epilogue must treat them as the unfused layers
// do: the clamp maps a NaN product to +0, and an unrectified window
// keeps a NaN only when it comes first.
func TestConv2DBatchNonFinite(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		r := rng.New(93)
		for trial := 0; trial < 20; trial++ {
			c := randConvCase(r, true)
			x := c.batch.Data()
			for i, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				x[(i*len(x)/3+trial)%len(x)] = v
			}
			for _, relu := range []bool{false, true} {
				c.check(t, relu, false)
				c.check(t, relu, true)
			}
		}
	})
}

// TestPoolRecyclesBuffers checks the scratch pool contract: a Put buffer
// of matching size is handed back by the next Get (no allocation), sizes
// are tracked independently, and Stats reports the miss.
func TestPoolRecyclesBuffers(t *testing.T) {
	p := NewPool()
	a := p.Get(4, 8)
	if gets, misses := p.Stats(); gets != 1 || misses != 1 {
		t.Fatalf("after first Get: gets %d misses %d", gets, misses)
	}
	backing := &a.Data()[0]
	p.Put(a)
	b := p.Get(8, 4) // same element count, different shape: must reuse
	if &b.Data()[0] != backing {
		t.Fatal("Get after Put allocated instead of recycling")
	}
	if gets, misses := p.Stats(); gets != 2 || misses != 1 {
		t.Fatalf("after recycled Get: gets %d misses %d", gets, misses)
	}
	c := p.Get(4, 8) // bucket empty again: fresh allocation
	if &c.Data()[0] == backing {
		t.Fatal("pool handed out one buffer twice")
	}
	p.Put(nil)   // no-op
	p.Put(New()) // empty tensor: no-op
	if p.Get(3).Len() != 3 {
		t.Fatal("Get after no-op Puts broken")
	}
}

// BenchmarkConv2DBatch runs the stripe-fused convolution on the two
// conv shapes of the Table I MNIST net at a 64-sample chunk, once per
// kernel level the host has.
func BenchmarkConv2DBatch(b *testing.B) {
	r := rng.New(3)
	for _, s := range []struct {
		name          string
		inC, hw, outC int
	}{{"conv1", 1, 28, 40}, {"conv2", 40, 12, 20}} {
		batch, kernel := randTensor(r, 64, s.inC, s.hw, s.hw), randTensor(r, s.outC, s.inC, 5, 5)
		bias := randTensor(r, s.outC).Data()
		dst := New(64, s.outC, (s.hw-4)/2, (s.hw-4)/2)
		b.Run(s.name, func(b *testing.B) {
			forEachKernel(b, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					Conv2DBatchInto(dst, batch, kernel, bias, 1, true, true)
				}
			})
		})
	}
}
