package tensor

import (
	"fmt"
	"math"
	"testing"

	"napmon/internal/rng"
)

// contractGemm spells the accumulation contract of matmul.go's header,
// independent of tiling, packing, splits and operand orientation: per C
// element one ascending-k fused multiply-add chain per 256-wide k panel,
// plain adds between panel subtotals. a is (m, k), bt is Bᵀ, (n, k).
func contractGemm(a, bt []float64, m, n, k int) []float64 {
	c := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			for pc := 0; pc < k; pc += 256 {
				s := 0.0
				for p := pc; p < min(pc+256, k); p++ {
					s = math.FMA(a[i*k+p], bt[j*k+p], s)
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

// matVecRef spells the same contract for one vector, y = A × x for A
// (m, n), as one plain scalar loop per row: the reference MatVec is
// tested against.
func matVecRef(a []float64, x []float64, m, n int) []float64 {
	y := make([]float64, m)
	for i := range y {
		row := a[i*n : (i+1)*n]
		for pc := 0; pc < n; pc += 256 {
			s := 0.0
			for p := pc; p < min(pc+256, n); p++ {
				s = math.FMA(row[p], x[p], s)
			}
			if pc == 0 {
				y[i] = s
			} else {
				y[i] += s
			}
		}
	}
	return y
}

// runner is what forEachKernel needs of a *testing.T or *testing.B.
type runner[T any] interface {
	Run(name string, f func(T)) bool
	Skip(args ...any)
}

// forEachKernel runs body once per kernel level, as a subtest named
// after the level with the package forced to it. A level the host lacks
// is skipped with the reason.
func forEachKernel[T runner[T]](t T, body func(T)) {
	for l := KernelGo; l <= KernelAVX512; l++ {
		t.Run(l.String(), func(t T) {
			restore, err := ForceKernel(l)
			if err != nil {
				t.Skip(err)
			}
			defer restore()
			body(t)
		})
	}
}

// TestKernelLevel prints the level this host runs at (make test-split
// shows it, so a CI log says which kernels the parity suites ran on)
// and checks that ForceKernel lowers the level, refuses to raise it
// above the host's and restores it.
func TestKernelLevel(t *testing.T) {
	t.Logf("kernel level: %v", detectedKernel)
	if _, err := ForceKernel(detectedKernel + 1); err == nil {
		t.Fatalf("ForceKernel accepted %v above the detected %v", detectedKernel+1, detectedKernel)
	}
	restore, err := ForceKernel(KernelGo)
	if err != nil || kernelLevel != KernelGo {
		t.Fatalf("ForceKernel(go): level %v, err %v", kernelLevel, err)
	}
	restore()
	if kernelLevel != detectedKernel {
		t.Fatalf("restore left level %v, detected %v", kernelLevel, detectedKernel)
	}
}

// TestGemmContract demands bit equality with contractGemm over shapes
// that hit every edge — fewer rows than a micro tile, one row or column
// past a tile, a panel pair followed by an odd panel, a stripe and a
// panel boundary, thin and wide products — for A×B and A×Bᵀ, on every
// kernel level the host has. m = 1–7 are the narrow batches of a dense
// layer, whose A×Bᵀ puts every column of C in a short, zero-padded
// panel; k = 7, 8, 9 and 244 end in a partial vector of k steps. Run
// under -cpu 1,2,3,4 (make test-split) it also covers worker splits that
// do not land on tile boundaries.
func TestGemmContract(t *testing.T) {
	ms := []int{1, 2, 3, 4, 5, 6, 7, 10, 20, 40, 64, 65}
	ns := []int{1, 7, 8, 9, 15, 16, 17, 24, 64, 250, 4096}
	ks := []int{1, 7, 8, 9, 25, 244, 255, 256, 257, 1000}
	r := rng.New(77)
	forEachKernel(t, func(t *testing.T) {
		for _, m := range ms {
			for _, n := range ns {
				for _, k := range ks {
					// Every listed m, n and k still meets every edge of the
					// other two; only the billion-FMA corner of the cross
					// product, which adds time but no new edge, is cut (and
					// cut harder for the slower Go kernel).
					if limit := 1 << 24; m*n*k > limit || kernelLevel == KernelGo && m*n*k > limit/4 {
						continue
					}
					checkGemmContract(t, r, m, n, k)
				}
			}
		}
	})
}

func checkGemmContract(t *testing.T, r *rng.Source, m, n, k int) {
	t.Helper()
	a, b := randTensor(r, m, k), randTensor(r, k, n)
	bt := New(n, k)
	for p := 0; p < k; p++ {
		for j := 0; j < n; j++ {
			bt.data[j*k+p] = b.data[p*n+j]
		}
	}
	want := contractGemm(a.data, bt.data, m, n, k)
	plain, trans := New(m, n), New(m, n)
	MatMulInto(plain, a, b)
	MatMulTransBInto(trans, a, bt)
	for i, w := range want {
		if plain.data[i] != w || trans.data[i] != w {
			t.Fatalf("%s elem %d: A×B %v, A×Bᵀ %v, contract %v",
				fmt.Sprintf("m=%d n=%d k=%d", m, n, k), i, plain.data[i], trans.data[i], w)
		}
	}
}

// TestMatVecContract demands bit equality between MatVec and matVecRef
// on every kernel level, over row counts that leave every remainder of a
// 4-row strip and the Table I layer widths, and lengths of x from 0
// through ones that cross a blockK panel.
func TestMatVecContract(t *testing.T) {
	r := rng.New(78)
	forEachKernel(t, func(t *testing.T) {
		for _, m := range []int{1, 3, 7, 8, 9, 10, 15, 16, 17, 24, 40, 43, 84, 320} {
			for _, n := range []int{0, 1, 5, 7, 8, 9, 16, 63, 244, 256, 257, 500} {
				a, x := randTensor(r, m, n), randTensor(r, n)
				want, got := matVecRef(a.data, x.data, m, n), MatVec(a, x.data)
				for i, w := range want {
					if got[i] != w {
						t.Fatalf("m=%d n=%d elem %d: MatVec %v, contract %v", m, n, i, got[i], w)
					}
				}
			}
		}
	})
}

// TestMatVecNoAlloc checks that the float64 width-1 path — one dense
// layer of one training sample — allocates nothing on a warm 320×320
// product: a width-1 MatMulTransBInto makes no allocation and MatVec
// only the vector it returns. A product too small to fork must run
// without building the closure a fork would need.
func TestMatVecNoAlloc(t *testing.T) {
	r := rng.New(79)
	x, w, y := randTensor(r, 1, 320), randTensor(r, 320, 320), New(1, 320)
	forEachKernel(t, func(t *testing.T) {
		if allocs := testing.AllocsPerRun(20, func() { MatMulTransBInto(y, x, w) }); allocs != 0 {
			t.Fatalf("width-1 MatMulTransBInto allocates %v times per call", allocs)
		}
		if allocs := testing.AllocsPerRun(20, func() { MatVec(w, x.data) }); allocs != 1 {
			t.Fatalf("MatVec allocates %v times per call, want 1 (its result)", allocs)
		}
	})
}
