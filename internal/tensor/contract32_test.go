package tensor

import (
	"math"
	"math/big"
	"testing"

	"napmon/internal/rng"
)

// randTensor32 is randTensor narrowed to float32.
func randTensor32(r *rng.Source, shape ...int) *Tensor32 {
	t := New32(shape...)
	Narrow32(t.data, randTensor(r, shape...).data)
	return t
}

// panels32 returns W (n, k) in PackPanels32's layout, the form
// DenseBatchInto reads.
func panels32(w *Tensor32) *Tensor32 {
	p := New32(PanelsLen32(w.shape[0], w.shape[1]))
	PackPanels32(p.data, w.data, w.shape[0], w.shape[1])
	return p
}

// contractGemm32 spells the float32 accumulation contract of gemm32.go,
// independent of tiling, packing, splits, batch width and kernel: per C
// element one ascending-k fma32 chain per 256-wide k panel, plain
// float32 adds between panel subtotals. a is (m, k), bt is Bᵀ, (n, k).
func contractGemm32(a, bt []float32, m, n, k int) []float32 {
	c := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			for pc := 0; pc < k; pc += 256 {
				var s float32
				for p := pc; p < min(pc+256, k); p++ {
					s = fma32(a[i*k+p], bt[j*k+p], s)
				}
				if pc == 0 {
					c[i*n+j] = s
				} else {
					c[i*n+j] += s
				}
			}
		}
	}
	return c
}

// TestGemm32Contract demands bit equality between DenseBatchInto and
// contractGemm32 — X (m, k) × Wᵀ, W (n, k) — on every kernel level,
// over shapes that hit every edge: batch widths 1–3 (the 1-row kernel
// alone), whole 4-row strips and strips with 1–3 rows left over; weight
// row counts below, at and past one and two 16-wide panels, a short
// last panel, and past the 1-row kernel's groups of four and eight
// panels; k of every small length and across a blockK panel. Run under
// -cpu 1,2,3,4 (make test-split) it also covers the column split.
func TestGemm32Contract(t *testing.T) {
	ms := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 33, 64, 65}
	ns := []int{1, 7, 8, 9, 15, 16, 17, 24, 40, 43, 84, 129, 160, 320}
	ks := []int{1, 7, 8, 9, 25, 244, 256, 257, 600}
	r := rng.New(177)
	forEachKernel(t, func(t *testing.T) {
		for _, m := range ms {
			for _, n := range ns {
				for _, k := range ks {
					if m*n*k > 1<<20 {
						continue
					}
					x, w := randTensor32(r, m, k), randTensor32(r, n, k)
					want, got := contractGemm32(x.data, w.data, m, n, k), New32(m, n)
					DenseBatchInto(got, x, panels32(w), nil, false)
					for i, v := range want {
						if got.data[i] != v {
							t.Fatalf("m=%d n=%d k=%d elem %d: DenseBatchInto %v, contract %v", m, n, k, i, got.data[i], v)
						}
					}
				}
			}
		}
	})
}

// fma32Exact is a·b + c computed exactly with math/big and rounded once
// to float32 — the reference fma32 is tested against.
func fma32Exact(a, b, c float32) float32 {
	// Special values propagate, and a zero float64 sum is exact (the
	// operands are multiples of 2⁻²⁹⁸, far above float64's smallest
	// step) and carries IEEE's sign rule: no rounding question.
	if x := float64(a)*float64(b) + float64(c); x == 0 || math.IsNaN(x) || math.IsInf(x, 0) {
		return float32(x)
	}
	p := new(big.Float).SetPrec(2000).SetFloat64(float64(a))
	p.Mul(p, new(big.Float).SetFloat64(float64(b)))
	p.Add(p, new(big.Float).SetFloat64(float64(c)))
	f, _ := p.Float32()
	return f
}

// fma32Cases returns the special triples: the double-rounding
// counterexample (a = 1+2⁻²³, b = 1−2⁻²⁴, c = 2⁻⁴⁷+2⁻⁷⁰, whose exact
// sum lies just above an f32 midpoint that the float64 sum rounds onto),
// subnormal products and sums, and overflow on both sides.
func fma32Cases() [][3]float32 {
	tiny := math.SmallestNonzeroFloat32
	return [][3]float32{
		{1 + 0x1p-23, 1 - 0x1p-24, 0x1p-47 + 0x1p-70},
		{-(1 + 0x1p-23), 1 - 0x1p-24, -(0x1p-47 + 0x1p-70)},
		{float32(tiny), 0.5, 0},
		{float32(tiny), 1.5, float32(tiny)},
		{0x1p-75, 0x1p-75, float32(-tiny)},
		{0x1p-70, 0x1p-60, 0x1p-126},
		{math.MaxFloat32, 2, 0},
		{math.MaxFloat32, 1, math.MaxFloat32},
		{-math.MaxFloat32, 1.5, -math.MaxFloat32},
		{math.MaxFloat32, -1, math.MaxFloat32},
		{0x1p64, 0x1p64, -math.MaxFloat32},
		{3, 0, -0},
		{-3, 0, -0},
	}
}

// randFloat32 draws a finite float32 whose exponent spans the whole
// range, or, half the time, lies within a few binades of 1, where the
// product and c overlap and rounding is decided in the last bits.
func randFloat32(r *rng.Source) float32 {
	if r.Bool(0.5) {
		for {
			if f := math.Float32frombits(uint32(r.Uint64())); !math.IsNaN(float64(f)) && !math.IsInf(float64(f), 0) {
				return f
			}
		}
	}
	bits := uint32(r.Uint64())&0x807fffff | uint32(120+r.Intn(16))<<23
	return math.Float32frombits(bits)
}

// TestFMA32CorrectlyRounded checks fma32 against the exact math/big
// result on the special triples and on random ones.
func TestFMA32CorrectlyRounded(t *testing.T) {
	for _, c := range fma32Cases() {
		if got, want := fma32(c[0], c[1], c[2]), fma32Exact(c[0], c[1], c[2]); math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("fma32(%v, %v, %v) = %#x, exact %#x", c[0], c[1], c[2], math.Float32bits(got), math.Float32bits(want))
		}
	}
	if got := math.Float32bits(fma32(1+0x1p-23, 1-0x1p-24, 0x1p-47+0x1p-70)); got != 0x3f800001 {
		t.Fatalf("the double-rounding counterexample gives %#x, want 0x3f800001", got)
	}
	r := rng.New(31)
	for i := 0; i < 200000; i++ {
		a, b, c := randFloat32(r), randFloat32(r), randFloat32(r)
		if r.Bool(0.3) { // c cancels most of the product
			c = -float32(float64(a)*float64(b)) * (1 + float32(r.Range(-1e-6, 1e-6)))
		}
		got, want := fma32(a, b, c), fma32Exact(a, b, c)
		if math.Float32bits(got) != math.Float32bits(want) && !(got != got && want != want) {
			t.Fatalf("fma32(%v, %v, %v) = %v, exact %v", a, b, c, got, want)
		}
	}
}

// TestFMA32MatchesAssembly runs the assembly micro kernels on 10⁶ random
// triples plus the special ones and demands fma32's bits. A kernel's
// first k step starts from zero, so each triple is a two-step chain:
// step 0 multiplies c by 1, which is exact, and step 1 is the fused
// multiply-add a·b + c under test.
func TestFMA32MatchesAssembly(t *testing.T) {
	if detectedKernel == KernelGo {
		t.Skip("no assembly kernels on this host")
	}
	r := rng.New(32)
	cases := fma32Cases()
	for len(cases) < 1000000 {
		a, b, c := randFloat32(r), randFloat32(r), randFloat32(r)
		if r.Bool(0.3) {
			c = -float32(float64(a)*float64(b)) * (1 + float32(r.Range(-1e-6, 1e-6)))
		}
		cases = append(cases, [3]float32{a, b, c})
	}
	// One tile per call: row i of A is (c_i, a_i) and panel column j
	// is (1, b_j), so element (i, j) is fma(a_i, b_j, c_i). Rows and
	// columns take consecutive cases, so the diagonal holds every case
	// as drawn and the rest of the tile more triples.
	var a [4 * 2]float32
	var pk [2 * 2 * microN32]float32
	var c [4 * 2 * microN32]float32
	kernels := []struct {
		name string
		cols int
		run  func()
	}{
		{"4x16", microN32, func() { gemm4x16ps(&a[0], 2, &pk[0], 2, &c[0], 2*microN32, nil, 0) }},
	}
	if detectedKernel == KernelAVX512 {
		kernels = append(kernels, struct {
			name string
			cols int
			run  func()
		}{"4x32", 2 * microN32, func() { gemm4x32ps(&a[0], 2, &pk[0], 2, &c[0], 2*microN32, nil, 0) }})
	}
	for _, kern := range kernels {
		for base := 0; base+4 <= len(cases); base += 4 {
			for i := 0; i < 4; i++ {
				a[2*i], a[2*i+1] = cases[base+i][2], cases[base+i][0]
			}
			var bs [2 * microN32]float32
			for j := 0; j < kern.cols; j++ {
				bs[j] = cases[(base+j)%len(cases)][1]
			}
			// Panel layout: kb = 2 rows of 16 per panel, panels adjacent.
			for j := 0; j < kern.cols; j++ {
				p, col := j/microN32, j%microN32
				pk[p*2*microN32+col] = 1
				pk[p*2*microN32+microN32+col] = bs[j]
			}
			kern.run()
			for i := 0; i < 4; i++ {
				for j := 0; j < kern.cols; j++ {
					want := fma32(a[2*i+1], bs[j], fma32(a[2*i], 1, 0))
					if got := c[i*2*microN32+j]; math.Float32bits(got) != math.Float32bits(want) && !(got != got && want != want) {
						t.Fatalf("%s: fma(%v, %v, %v): assembly %v, fma32 %v", kern.name, a[2*i+1], bs[j], a[2*i], got, want)
					}
				}
			}
		}
	}
}

// TestGemv32NoAlloc checks that a warm width-1 DenseBatchInto — one
// dense layer of a lone request, run by the 1-row kernel — allocates
// nothing.
func TestGemv32NoAlloc(t *testing.T) {
	r := rng.New(79)
	x, w, y := randTensor32(r, 1, 320), panels32(randTensor32(r, 320, 320)), New32(1, 320)
	bias := randTensor32(r, 320).data
	forEachKernel(t, func(t *testing.T) {
		if allocs := testing.AllocsPerRun(20, func() { DenseBatchInto(y, x, w, bias, true) }); allocs != 0 {
			t.Fatalf("width-1 DenseBatchInto allocates %v times per call", allocs)
		}
	})
}

// TestDenseEpilogueContract demands that DenseBatchInto's in-kernel
// epilogue equal the unfused float32 reference — contractGemm32, then +
// bias, then nn.ReLU's clamp — with relu on and off and with and
// without a bias, on every kernel level, at the batch widths serving
// sees (1–5, 45 = watchSplit's chunk of 180 inputs on 2 workers, 64),
// every out of network 1's shapes and a short last panel, and in = 300,
// across a blockK panel. The pre-activations include −0, ±Inf and NaN
// (columns of tiny, huge and zero weights against positive inputs, and
// rows carrying a NaN or an infinity) and one bias is NaN, so the clamp
// must map NaN and −0 to +0 and keep the order add-then-clamp. Results
// are compared bit for bit, except that any NaN matches any NaN: which
// operand's NaN an add returns is not part of the contract.
func TestDenseEpilogueContract(t *testing.T) {
	const k = 300
	type epiCase struct {
		m, n      int
		x, w      *Tensor32
		bias, pre []float32
	}
	var cases []epiCase
	r := rng.New(83)
	for _, n := range []int{4, 10, 16, 40, 320} {
		w := New32(n, k)
		for j := 0; j < n; j++ {
			special := j < 4 || j >= n-4
			for p := 0; p < k; p++ {
				v := float32(r.Range(-1, 1))
				if special {
					v = [4]float32{-1e-30, 1e38, -1e38, 0}[j%4] // −0, +Inf, −Inf, +0 or NaN
				}
				w.data[j*k+p] = v
			}
		}
		bias := randTensor32(r, n).data
		bias[0], bias[n/2] = float32(math.Copysign(0, -1)), float32(math.NaN())
		for _, m := range []int{1, 2, 3, 4, 5, 45, 64} {
			x := New32(m, k)
			for i := range x.data {
				x.data[i] = float32(r.Range(0.1, 1))
			}
			x.data[(m-1)*k+7] = float32(math.NaN())
			if m > 1 {
				x.data[k+260] = float32(math.Inf(1))
			}
			cases = append(cases, epiCase{m, n, x, panels32(w), bias, contractGemm32(x.data, w.data, m, n, k)})
		}
	}
	forEachKernel(t, func(t *testing.T) {
		for _, c := range cases {
			got := New32(c.m, c.n)
			for _, b := range [][]float32{nil, c.bias} {
				for _, relu := range []bool{false, true} {
					DenseBatchInto(got, c.x, c.w, b, relu)
					for i, v := range c.pre {
						if b != nil {
							v += b[i%c.n]
						}
						if relu {
							v = clamp32(v)
						}
						if g := got.data[i]; math.Float32bits(g) != math.Float32bits(v) && !(g != g && v != v) {
							t.Fatalf("m=%d n=%d bias %t relu %t elem %d: kernel %v (%#x), reference %v (%#x)",
								c.m, c.n, b != nil, relu, i, g, math.Float32bits(g), v, math.Float32bits(v))
						}
					}
				}
			}
		}
	})
}
