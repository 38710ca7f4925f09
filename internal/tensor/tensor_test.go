package tensor

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"napmon/internal/rng"
)

func TestNewZeroFilled(t *testing.T) {
	a := New(2, 3, 4)
	if a.Len() != 24 {
		t.Fatalf("Len = %d, want 24", a.Len())
	}
	for _, v := range a.Data() {
		if v != 0 {
			t.Fatal("New tensor not zero-filled")
		}
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	a := New(3, 4)
	a.Set(7.5, 2, 1)
	if got := a.At(2, 1); got != 7.5 {
		t.Fatalf("At(2,1) = %v, want 7.5", got)
	}
	if got := a.Data()[2*4+1]; got != 7.5 {
		t.Fatalf("row-major layout violated: data[9] = %v", got)
	}
}

func TestOffsetRowMajor(t *testing.T) {
	a := New(2, 3, 5)
	a.Set(1, 1, 2, 4)
	if a.Data()[1*15+2*5+4] != 1 {
		t.Fatal("offset not row-major")
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestFromSliceShares(t *testing.T) {
	d := []float64{1, 2, 3, 4}
	a := FromSlice(d, 2, 2)
	d[3] = 9
	if a.At(1, 1) != 9 {
		t.Fatal("FromSlice must not copy")
	}
}

func TestFromSlicePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestCloneIndependent(t *testing.T) {
	a := FromSlice([]float64{3, 3, 3, 3}, 2, 2)
	b := a.Clone()
	b.Set(0, 0, 0)
	if a.At(0, 0) != 3 {
		t.Fatal("Clone shares storage")
	}
}

func TestReshapeSharesStorage(t *testing.T) {
	a := New(2, 6)
	b := a.Reshape(3, 4)
	b.Set(5, 2, 3)
	if a.At(1, 5) != 5 {
		t.Fatal("Reshape must share storage")
	}
}

func TestReshapePanicsOnCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 3).Reshape(5)
}

func TestArgMax(t *testing.T) {
	a := FromSlice([]float64{1, 9, 3, 9}, 4)
	if got := a.ArgMax(); got != 1 {
		t.Fatalf("ArgMax = %d, want 1 (first of tie)", got)
	}
}

func TestAddIntoAndSum(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{10, 20, 30}, 3)
	a.AddInto(b)
	want := []float64{11, 22, 33}
	for i, w := range want {
		if a.Data()[i] != w {
			t.Fatalf("AddInto[%d] = %v, want %v", i, a.Data()[i], w)
		}
	}
	if a.Sum() != 66 {
		t.Fatalf("Sum = %v, want 66", a.Sum())
	}
}

func TestDot(t *testing.T) {
	a := FromSlice([]float64{1, -4, 2}, 3)
	b := FromSlice([]float64{2, 1, 3}, 3)
	if got := a.Dot(b); got != 4 {
		t.Fatalf("Dot = %v, want 4", got)
	}
}

func randTensor(r *rng.Source, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data() {
		t.Data()[i] = r.Range(-1, 1)
	}
	return t
}

func matmulNaive(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			sum := 0.0
			for p := 0; p < k; p++ {
				sum += a.At(i, p) * b.At(p, j)
			}
			c.Set(sum, i, j)
		}
	}
	return c
}

func tensorsClose(t *testing.T, got, want *Tensor, tol float64) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("shape mismatch: %v vs %v", got.Shape(), want.Shape())
	}
	for i := range got.Data() {
		if math.Abs(got.Data()[i]-want.Data()[i]) > tol {
			t.Fatalf("elem %d: got %v, want %v", i, got.Data()[i], want.Data()[i])
		}
	}
}

func TestMatMulMatchesNaive(t *testing.T) {
	r := rng.New(1)
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {5, 7, 3}, {16, 16, 16}, {33, 20, 41}} {
		a := randTensor(r, dims[0], dims[1])
		b := randTensor(r, dims[1], dims[2])
		tensorsClose(t, MatMul(a, b), matmulNaive(a, b), 1e-12)
	}
}

func TestMatMulLargeParallelPath(t *testing.T) {
	r := rng.New(2)
	a := randTensor(r, 70, 64)
	b := randTensor(r, 64, 70)
	tensorsClose(t, MatMul(a, b), matmulNaive(a, b), 1e-10)
}

func TestMatMulIdentity(t *testing.T) {
	r := rng.New(3)
	a := randTensor(r, 6, 6)
	id := New(6, 6)
	for i := 0; i < 6; i++ {
		id.Set(1, i, i)
	}
	tensorsClose(t, MatMul(a, id), a, 1e-14)
	tensorsClose(t, MatMul(id, a), a, 1e-14)
}

func TestMatMulPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(New(2, 3), New(4, 2))
}

func TestMatMulTransA(t *testing.T) {
	r := rng.New(4)
	a := randTensor(r, 7, 5) // (k=7, m=5)
	b := randTensor(r, 7, 6)
	// Build Aᵀ explicitly and compare.
	at := New(5, 7)
	for i := 0; i < 7; i++ {
		for j := 0; j < 5; j++ {
			at.Set(a.At(i, j), j, i)
		}
	}
	tensorsClose(t, MatMulTransA(a, b), matmulNaive(at, b), 1e-12)
}

func TestMatMulTransB(t *testing.T) {
	r := rng.New(5)
	a := randTensor(r, 5, 7)
	b := randTensor(r, 6, 7) // (n=6, k=7)
	bt := New(7, 6)
	for i := 0; i < 6; i++ {
		for j := 0; j < 7; j++ {
			bt.Set(b.At(i, j), j, i)
		}
	}
	tensorsClose(t, MatMulTransB(a, b), matmulNaive(a, bt), 1e-12)
}

func TestMatVec(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	forEachKernel(t, func(t *testing.T) {
		y := MatVec(a, []float64{1, 0, -1})
		if y[0] != -2 || y[1] != -2 {
			t.Fatalf("MatVec = %v, want [-2 -2]", y)
		}
	})
}

// Property: (A×B)×C == A×(B×C) within floating-point tolerance.
func TestMatMulAssociativityProperty(t *testing.T) {
	r := rng.New(6)
	check := func(seed uint16) bool {
		rr := rng.New(uint64(seed) + r.Uint64()%7)
		m, k, n, q := 2+rr.Intn(5), 2+rr.Intn(5), 2+rr.Intn(5), 2+rr.Intn(5)
		a := randTensor(rr, m, k)
		b := randTensor(rr, k, n)
		c := randTensor(rr, n, q)
		left := MatMul(MatMul(a, b), c)
		right := MatMul(a, MatMul(b, c))
		for i := range left.Data() {
			if math.Abs(left.Data()[i]-right.Data()[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestIm2ColShape(t *testing.T) {
	input := New(2, 6, 8)
	cols := Im2Col(input, 3, 3, 1)
	if cols.Dim(0) != 2*3*3 || cols.Dim(1) != 4*6 {
		t.Fatalf("Im2Col shape = %v", cols.Shape())
	}
}

func TestCol2ImAdjoint(t *testing.T) {
	// <Im2Col(x), y> == <x, Col2Im(y)> — the defining adjoint property.
	r := rng.New(9)
	x := randTensor(r, 2, 6, 6)
	cols := Im2Col(x, 3, 3, 1)
	y := randTensor(r, cols.Dim(0), cols.Dim(1))
	lhs := cols.Dot(y)
	back := Col2Im(y, 2, 6, 6, 3, 3, 1)
	rhs := x.Dot(back)
	if math.Abs(lhs-rhs) > 1e-9 {
		t.Fatalf("adjoint mismatch: %v vs %v", lhs, rhs)
	}
}

func TestMaxPool2D(t *testing.T) {
	input := FromSlice([]float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 4, 4)
	out, argmax := MaxPool2D(input, 2)
	want := []float64{6, 8, 14, 16}
	for i, w := range want {
		if out.Data()[i] != w {
			t.Fatalf("pool[%d] = %v, want %v", i, out.Data()[i], w)
		}
	}
	wantIdx := []int{5, 7, 13, 15}
	for i, w := range wantIdx {
		if argmax[i] != w {
			t.Fatalf("argmax[%d] = %d, want %d", i, argmax[i], w)
		}
	}
}

func TestMaxPoolBackwardScatter(t *testing.T) {
	input := FromSlice([]float64{
		1, 2,
		3, 4,
	}, 1, 2, 2)
	out, argmax := MaxPool2D(input, 2)
	if out.At(0, 0, 0) != 4 {
		t.Fatal("pool max wrong")
	}
	grad := FromSlice([]float64{2.5}, 1, 1, 1)
	gin := MaxPool2DBackward(grad, argmax, 1, 2, 2)
	want := []float64{0, 0, 0, 2.5}
	for i, w := range want {
		if gin.Data()[i] != w {
			t.Fatalf("gradIn[%d] = %v, want %v", i, gin.Data()[i], w)
		}
	}
}

func TestMaxPoolPanicsOnIndivisible(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MaxPool2D(New(1, 5, 4), 2)
}

// Property: max pooling of a tensor never produces values absent from it,
// and each output is >= every element of its window.
func TestMaxPoolProperty(t *testing.T) {
	check := func(seed uint32) bool {
		r := rng.New(uint64(seed))
		in := randTensor(r, 2, 4, 6)
		out, argmax := MaxPool2D(in, 2)
		for i, v := range out.Data() {
			if in.Data()[argmax[i]] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMatMul64(b *testing.B) {
	r := rng.New(1)
	x := randTensor(r, 64, 64)
	y := randTensor(r, 64, 64)
	dst := New(64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, x, y)
	}
}

// BenchmarkMatMul256 times a 256³ product once per kernel level the
// host has and reports its rate, so one command reads each level's
// peak.
func BenchmarkMatMul256(b *testing.B) {
	r := rng.New(1)
	x := randTensor(r, 256, 256)
	y := randTensor(r, 256, 256)
	dst := New(256, 256)
	forEachKernel(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MatMulInto(dst, x, y)
		}
		b.ReportMetric(2*256*256*256*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
	})
}

// BenchmarkDenseBatch times DenseBatchInto with its bias+ReLU epilogue
// over network 1's dense shapes (out × in) at the batch widths serving
// sees — 1 (a lone request, the 1-row kernel), 4, 8, 45 (watchSplit's
// chunk of offline_batch's 180 inputs on 2 workers) and 64 (a full
// chunk) — once per kernel level the host has, and reports the
// multiply-accumulate rate.
func BenchmarkDenseBatch(b *testing.B) {
	r := rng.New(1)
	forEachKernel(b, func(b *testing.B) {
		for _, s := range [][2]int{{320, 320}, {160, 320}, {80, 160}, {40, 80}, {10, 40}} {
			w, bias := panels32(randTensor32(r, s[0], s[1])), randTensor32(r, s[0]).data
			for _, m := range []int{1, 4, 8, 45, 64} {
				x, y := randTensor32(r, m, s[1]), New32(m, s[0])
				b.Run(fmt.Sprintf("%dx%d/b%d", s[0], s[1], m), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						DenseBatchInto(y, x, w, bias, true)
					}
					b.ReportMetric(float64(m*s[0]*s[1])*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
				})
			}
		}
	})
}
