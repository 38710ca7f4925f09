package tensor

import (
	"fmt"
	"slices"
)

// Pool recycles scratch tensors so the batched inference hot path is
// allocation-free after warm-up: every intermediate a ForwardBatch pass
// needs (stacked inputs, im2col matrices, GEMM outputs, per-layer
// activations) is drawn from a Pool and returned when the next layer has
// consumed it. Free buffers sit in one list ordered by capacity; Get
// slices the smallest one that is large enough, so a narrow batch reuses
// the buffers a wider one left behind. A Get that every free buffer is
// too small for allocates and drops the largest of them — the new buffer
// serves everything the dropped one did — so the pool settles on one
// working set sized for the widest pass it has served, whatever mix of
// batch widths it sees, and allocates nothing afterwards.
//
// A Pool is NOT safe for concurrent use; give each serving goroutine its
// own (the monitor keeps a sync.Pool of them). A backing array must be
// Put back at most once — returning both a tensor and a Reshape view of
// it corrupts later Gets.
type Pool struct {
	free [][]float64 // ascending capacity; a handful of buffers

	gets, misses int
}

// NewPool returns an empty scratch pool.
func NewPool() *Pool { return &Pool{} }

// Get returns a tensor of the given shape backed by a recycled buffer
// when a large enough one is free, or a fresh allocation otherwise. The
// contents are undefined — callers must fully overwrite them (every
// kernel in this package does).
func (p *Pool) Get(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	p.gets++
	for i, buf := range p.free {
		if cap(buf) >= n {
			p.free = slices.Delete(p.free, i, i+1)
			return &Tensor{shape: append([]int(nil), shape...), data: buf[:n]}
		}
	}
	p.misses++
	if last := len(p.free) - 1; last >= 0 {
		p.free[last] = nil
		p.free = p.free[:last]
	}
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float64, n)}
}

// Put returns t's backing array to the pool for reuse. Put accepts nil
// and storage-less tensors as no-ops. The caller must not touch t (or
// any view sharing its backing array) afterwards.
func (p *Pool) Put(t *Tensor) {
	if t == nil || cap(t.data) == 0 {
		return
	}
	i, _ := slices.BinarySearchFunc(p.free, cap(t.data), func(buf []float64, c int) int { return cap(buf) - c })
	p.free = slices.Insert(p.free, i, t.data)
}

// Stats reports how many Gets the pool has served and how many had to
// allocate. A warm serving loop should show misses plateau while gets
// keeps growing.
func (p *Pool) Stats() (gets, misses int) { return p.gets, p.misses }
