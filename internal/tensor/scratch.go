package tensor

import "slices"

// Pool recycles scratch tensors so the batched inference hot path is
// allocation-free after warm-up: every intermediate a ForwardBatch pass
// needs (stacked inputs, GEMM outputs, per-layer activations — float32
// Tensor32s — and the float64 logits and captured layer it hands back)
// is drawn from a Pool and returned when the next layer has consumed
// it. Free buffers sit in one list per element type ordered by
// capacity; Get slices the smallest one that is large enough, so a
// narrow batch reuses the buffers a wider one left behind. A Get that
// every free buffer is too small for allocates and drops the largest of
// them — the new buffer serves everything the dropped one did — so the
// pool settles on one working set sized for the widest pass it has
// served, whatever mix of batch widths it sees, and allocates nothing
// afterwards.
//
// A Pool is NOT safe for concurrent use; give each serving goroutine its
// own (the monitor keeps a sync.Pool of them). A backing array must be
// Put back at most once — returning both a tensor and a Reshape view of
// it corrupts later Gets.
type Pool struct {
	free   [][]float64 // ascending capacity; a handful of buffers
	free32 [][]float32

	gets, misses int
}

// NewPool returns an empty scratch pool.
func NewPool() *Pool { return &Pool{} }

// Get returns a tensor of the given shape backed by a recycled buffer
// when a large enough one is free, or a fresh allocation otherwise. The
// contents are undefined — callers must fully overwrite them (every
// kernel in this package does).
func (p *Pool) Get(shape ...int) *Tensor {
	return &Tensor{shape: append([]int(nil), shape...), data: take(p, &p.free, elems(shape))}
}

// Get32 is Get for a float32 tensor.
func (p *Pool) Get32(shape ...int) *Tensor32 {
	return &Tensor32{shape: append([]int(nil), shape...), data: take(p, &p.free32, elems(shape))}
}

// take slices the smallest free buffer of at least n elements out of
// free, or allocates one and drops the largest free buffer.
func take[T float32 | float64](p *Pool, free *[][]T, n int) []T {
	p.gets++
	for i, buf := range *free {
		if cap(buf) >= n {
			*free = slices.Delete(*free, i, i+1)
			return buf[:n]
		}
	}
	p.misses++
	if last := len(*free) - 1; last >= 0 {
		(*free)[last] = nil
		*free = (*free)[:last]
	}
	return make([]T, n)
}

// Put returns t's backing array to the pool for reuse. Put accepts nil
// and storage-less tensors as no-ops. The caller must not touch t (or
// any view sharing its backing array) afterwards.
func (p *Pool) Put(t *Tensor) {
	if t != nil {
		give(&p.free, t.data)
	}
}

// Put32 is Put for a float32 tensor.
func (p *Pool) Put32(t *Tensor32) {
	if t != nil {
		give(&p.free32, t.data)
	}
}

func give[T float32 | float64](free *[][]T, buf []T) {
	if cap(buf) == 0 {
		return
	}
	i, _ := slices.BinarySearchFunc(*free, cap(buf), func(b []T, c int) int { return cap(b) - c })
	*free = slices.Insert(*free, i, buf)
}

// Stats reports how many Gets the pool has served and how many had to
// allocate. A warm serving loop should show misses plateau while gets
// keeps growing.
func (p *Pool) Stats() (gets, misses int) { return p.gets, p.misses }
