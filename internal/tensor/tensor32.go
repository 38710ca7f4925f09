package tensor

import "fmt"

// Tensor32 is the float32 form of Tensor that batched inference runs on:
// a dense, row-major array whose element count its shape implies. It
// carries only what the inference kernels and layers need — shape,
// storage and reshaping views; arithmetic lives in the kernels.
type Tensor32 struct {
	shape []int
	data  []float32
}

// New32 returns a zero-filled float32 tensor with the given shape.
func New32(shape ...int) *Tensor32 {
	return &Tensor32{shape: append([]int(nil), shape...), data: make([]float32, elems(shape))}
}

// elems is the element count a shape implies; it panics on a negative
// dimension.
func elems(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	return n
}

// Shape returns the tensor's dimensions. The caller must not modify it.
func (t *Tensor32) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
func (t *Tensor32) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor32) Rank() int { return len(t.shape) }

// Len returns the total number of elements.
func (t *Tensor32) Len() int { return len(t.data) }

// Data returns the backing slice in row-major order. Mutating it mutates
// the tensor.
func (t *Tensor32) Data() []float32 { return t.data }

// Reshape returns a view of t with a new shape covering the same
// elements; the backing array is shared.
func (t *Tensor32) Reshape(shape ...int) *Tensor32 {
	if n := elems(shape); n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)",
			t.shape, len(t.data), shape, n))
	}
	return &Tensor32{shape: append([]int(nil), shape...), data: t.data}
}

// Narrow32 stores src rounded to float32 in dst, which must be as long.
func Narrow32(dst []float32, src []float64) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = float32(v)
	}
}

// Widen64 stores src widened to float64 (exactly) in dst, which must be
// as long.
func Widen64(dst []float64, src []float32) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = float64(v)
	}
}
