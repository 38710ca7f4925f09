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
// relies on exactly this equivalence against the per-sample path. Both
// run the packed GEMM; the random shapes vary which C columns land in
// full panels and which in the padded last one.
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

// TestMatMulTransBBiasReLUFusion checks DenseBatchInto's in-kernel
// epilogue against the unfused float32 product followed by an explicit
// bias add and nn.ReLU's rectification, which maps NaN to +0: row 0 of
// X carries a NaN and row 1 an infinity. It runs at widths below four
// rows (the 1-row kernel) and past them (4-row strips with a leftover
// row), on every kernel level.
func TestMatMulTransBBiasReLUFusion(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		r := rng.New(11)
		for _, m := range []int{2, 13} {
			k, n := 37, 21
			x, w := randTensor32(r, m, k), panels32(randTensor32(r, n, k))
			x.data[3], x.data[k+5] = float32(math.NaN()), float32(math.Inf(1))
			bias := randTensor32(r, n).data
			fused, plain := New32(m, n), New32(m, n)
			DenseBatchInto(fused, x, w, bias, true)
			DenseBatchInto(plain, x, w, nil, false)
			for i, v := range plain.data {
				if want := clamp32(v + bias[i%n]); fused.data[i] != want {
					t.Fatalf("m=%d elem %d: fused %v, reference %v", m, i, fused.data[i], want)
				}
			}
		}
	})
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
// blockK panel, maps wider than a micro panel and narrower than one, map
// widths that are and are not a multiple of 8 (whole or split gather
// halves), and stripes that span several samples.
type convCase struct {
	batch, kernel *Tensor32
	bias          []float32
	stride        int
}

func randConvCase(r *rng.Source, even bool) convCase {
	bsz, inC, outC := 1+r.Intn(5), 1+r.Intn(3), 1+r.Intn(9)
	kh, kw, stride := 1+r.Intn(3), 1+r.Intn(3), 1+r.Intn(2)
	if r.Bool(0.3) {
		inC, kh, kw = 30+r.Intn(4), 3, 3 // K = 270..297 > blockK
	}
	outH, outW := 1+r.Intn(12), 1+r.Intn(12)
	if r.Bool(0.3) {
		outW = 8 * (1 + r.Intn(3))
	}
	if even {
		outH, outW = outH+outH%2, outW+outW%2
	}
	c := convCase{
		batch:  randTensor32(r, bsz, inC, (outH-1)*stride+kh+r.Intn(stride), (outW-1)*stride+kw+r.Intn(stride)),
		kernel: randTensor32(r, outC, inC, kh, kw),
		stride: stride,
	}
	if r.Bool(0.8) {
		c.bias = randTensor32(r, outC).data
	}
	return c
}

// perSample is the reference the batched driver must reproduce bit for
// bit: per sample Im2Col → the float32 contract product → bias → ReLU →
// MaxPool2D, stacked. Lowering and pooling only move and compare, so
// they run on the float64 widening of the float32 values.
func (c convCase) perSample(relu, pool2 bool) []float32 {
	bsz, inC, h, w := c.batch.Dim(0), c.batch.Dim(1), c.batch.Dim(2), c.batch.Dim(3)
	outC, kh, kw := c.kernel.Dim(0), c.kernel.Dim(2), c.kernel.Dim(3)
	outH, outW := (h-kh)/c.stride+1, (w-kw)/c.stride+1
	var out []float32
	for s := 0; s < bsz; s++ {
		sample := New(inC, h, w)
		Widen64(sample.data, c.batch.data[s*inC*h*w:(s+1)*inC*h*w])
		colsT := Im2Col(sample, kh, kw, c.stride) // (K, area)
		bt := make([]float32, outH*outW*inC*kh*kw)
		for row := 0; row < colsT.Dim(0); row++ {
			for col := 0; col < colsT.Dim(1); col++ {
				bt[col*colsT.Dim(0)+row] = float32(colsT.At(row, col))
			}
		}
		y := contractGemm32(c.kernel.data, bt, outC, outH*outW, inC*kh*kw)
		for oc := 0; oc < outC; oc++ {
			for i := oc * outH * outW; i < (oc+1)*outH*outW; i++ {
				if c.bias != nil {
					y[i] += c.bias[oc]
				}
				if relu {
					y[i] = clamp32(y[i])
				}
			}
		}
		if pool2 {
			y64 := New(outC, outH, outW)
			Widen64(y64.data, y)
			pooled, _ := MaxPool2D(y64, 2)
			y = make([]float32, pooled.Len())
			Narrow32(y, pooled.data)
		}
		out = append(out, y...)
	}
	return out
}

func (c convCase) check(t *testing.T, relu, pool2 bool) {
	t.Helper()
	want := c.perSample(relu, pool2)
	got := New32(len(want))
	for i := range got.data {
		got.data[i] = float32(math.NaN()) // every element must be overwritten
	}
	Conv2DBatchInto(got, c.batch, c.kernel, c.bias, c.stride, relu, pool2)
	for i, w := range want {
		if !sameFloat32(got.data[i], w) {
			t.Fatalf("batch %v kernel %v stride %d relu %v pool2 %v elem %d: batched %v, per-sample %v",
				c.batch.Shape(), c.kernel.Shape(), c.stride, relu, pool2, i, got.data[i], w)
		}
	}
}

// sameFloat32 is bit equality up to NaN payloads: any NaN equals any NaN.
func sameFloat32(a, b float32) bool { return a == b || a != a && b != b }

// TestAddBiasUnstack checks the conv epilogue without pooling: the
// stripe-fused driver's products must land batch-major with the channel
// bias added (and rectified when asked), equal to the per-sample
// contract reference, on every kernel level.
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
// float32 pooling, 2×2 and 3×3, against the per-sample kernel.
func TestMaxPool2DBatchMatchesSingle(t *testing.T) {
	r := rng.New(17)
	for _, size := range []int{2, 3} {
		const bsz, c = 4, 3
		h, w := 3*size, 4*size
		batch := randTensor32(r, bsz, c, h, w)
		batch.data[5] = float32(math.NaN())
		out := New32(bsz, c, h/size, w/size)
		MaxPool2DBatchInto(out, batch, size)
		sampleLen := c * h * w
		outLen := c * (h / size) * (w / size)
		for s := 0; s < bsz; s++ {
			sample := New(c, h, w)
			Widen64(sample.data, batch.data[s*sampleLen:(s+1)*sampleLen])
			want, _ := MaxPool2D(sample, size)
			for i, v := range want.Data() {
				if got := out.data[s*outLen+i]; !sameFloat32(got, float32(v)) {
					t.Fatalf("size %d sample %d elem %d: batch %v, single %v", size, s, i, got, v)
				}
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
		c := convCase{batch: randTensor32(r, 2, 1, 5, blockN+45), kernel: randTensor32(r, 3, 1, 2, 2), stride: 1}
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
			x := c.batch.data
			for i, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				x[(i*len(x)/3+trial)%len(x)] = float32(v)
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
	// float32 buffers recycle through their own list.
	f := p.Get32(2, 16)
	backing32 := &f.Data()[0]
	p.Put32(f)
	if g := p.Get32(32); &g.Data()[0] != backing32 {
		t.Fatal("Get32 after Put32 allocated instead of recycling")
	}
}

// BenchmarkConv2DBatch runs the stripe-fused float32 convolution on the
// two conv shapes of the Table I MNIST net at a 64-sample chunk, once
// per kernel level the host has.
func BenchmarkConv2DBatch(b *testing.B) {
	r := rng.New(3)
	for _, s := range []struct {
		name          string
		inC, hw, outC int
	}{{"conv1", 1, 28, 40}, {"conv2", 40, 12, 20}} {
		batch, kernel := randTensor32(r, 64, s.inC, s.hw, s.hw), randTensor32(r, s.outC, s.inC, 5, 5)
		bias := randTensor32(r, s.outC).data
		dst := New32(64, s.outC, (s.hw-4)/2, (s.hw-4)/2)
		b.Run(s.name, func(b *testing.B) {
			forEachKernel(b, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					Conv2DBatchInto(dst, batch, kernel, bias, 1, true, true)
				}
			})
		})
	}
}
