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

// TestGemmContract demands bit equality with contractGemm over shapes
// that hit every edge — fewer rows than a micro tile, one row or column
// past a tile, a stripe and a panel boundary, thin and wide products —
// for A×B and A×Bᵀ, on the detected kernel and on the Go kernel. Run
// under -cpu 1,2,3,4 (make test-split) it also covers worker splits
// that do not land on tile boundaries.
func TestGemmContract(t *testing.T) {
	ms := []int{1, 2, 3, 5, 10, 20, 40, 64, 65}
	ns := []int{1, 7, 8, 9, 64, 250, 4096}
	ks := []int{1, 25, 255, 256, 257, 1000}
	r := rng.New(77)
	for _, kernel := range []string{"detected", "go"} {
		t.Run(kernel, func(t *testing.T) {
			if kernel == "go" {
				defer forceGoKernel()()
			}
			for _, m := range ms {
				for _, n := range ns {
					for _, k := range ks {
						// Every listed m, n and k still meets every edge of the
						// other two; only the billion-FMA corner of the cross
						// product, which adds time but no new edge, is cut (and
						// cut harder for the slower Go kernel).
						if limit := 1 << 24; m*n*k > limit || kernel == "go" && m*n*k > limit/4 {
							continue
						}
						checkGemmContract(t, r, m, n, k)
					}
				}
			}
		})
	}
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
