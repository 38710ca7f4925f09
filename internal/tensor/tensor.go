// Package tensor implements the dense numerical arrays and the handful of
// linear-algebra kernels (matrix multiply, 2-D convolution via im2col,
// max-pooling) that the neural-network substrate is built on, in two
// precisions. Tensor is float64: training, the per-sample reference path
// and every value the package hands back. Tensor32 is float32: batched
// inference (DenseBatchInto, Conv2DBatchInto, MaxPool2DBatchInto), whose
// kernels move twice the lanes per vector instruction. The matrix
// multiply is cache-blocked and parallelized across goroutines because it
// dominates both training and inference time; its micro kernels, the
// float32 1-row kernels, the convolution's im2col gather and its pooling
// epilogue have amd64 assembly forms (AVX2, and AVX-512 for the
// kernels) picked at start-up by CPU detection. Within each
// precision every KernelLevel computes the same bits as the pure-Go one,
// which other architectures run.
package tensor

import "fmt"

// Tensor is a dense, row-major multi-dimensional array of float64.
// The zero value is an empty tensor.
type Tensor struct {
	shape []int
	data  []float64
}

// New returns a zero-filled tensor with the given shape. A tensor with no
// dimensions holds a single scalar.
func New(shape ...int) *Tensor {
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float64, elems(shape))}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); it must have exactly the number of elements the
// shape implies.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v needs %d elements, got %d", shape, n, len(data)))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}
}

// Shape returns the tensor's dimensions. The caller must not modify it.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the backing slice in row-major order. Mutating it mutates
// the tensor.
func (t *Tensor) Data() []float64 { return t.data }

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	out := New(t.shape...)
	copy(out.data, t.data)
	return out
}

// Reshape returns a view of t with a new shape covering the same elements.
// The element count must match; the backing array is shared.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)",
			t.shape, len(t.data), shape, n))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: t.data}
}

// offset computes the row-major linear index of the given coordinates.
func (t *Tensor) offset(idx ...int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: %d indices for rank-%d tensor", len(idx), len(t.shape)))
	}
	off := 0
	for i, v := range idx {
		if v < 0 || v >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of range [0,%d) in dim %d", v, t.shape[i], i))
		}
		off = off*t.shape[i] + v
	}
	return off
}

// At returns the element at the given coordinates.
func (t *Tensor) At(idx ...int) float64 { return t.data[t.offset(idx...)] }

// Set stores v at the given coordinates.
func (t *Tensor) Set(v float64, idx ...int) { t.data[t.offset(idx...)] = v }

// Zero resets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// AddInto adds other into t element-wise (t += other).
func (t *Tensor) AddInto(other *Tensor) {
	if len(t.data) != len(other.data) {
		panic("tensor: AddInto size mismatch")
	}
	for i, v := range other.data {
		t.data[i] += v
	}
}

// Dot returns the inner product of t and other viewed as flat vectors.
func (t *Tensor) Dot(other *Tensor) float64 {
	if len(t.data) != len(other.data) {
		panic("tensor: Dot size mismatch")
	}
	sum := 0.0
	for i, v := range t.data {
		sum += v * other.data[i]
	}
	return sum
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v
	}
	return s
}

// ArgMax returns the flat index of the largest element. Ties resolve to the
// lowest index. It panics on an empty tensor.
func (t *Tensor) ArgMax() int {
	if len(t.data) == 0 {
		panic("tensor: ArgMax of empty tensor")
	}
	bestIdx, bestVal := 0, t.data[0]
	for i := 1; i < len(t.data); i++ {
		if t.data[i] > bestVal {
			bestIdx, bestVal = i, t.data[i]
		}
	}
	return bestIdx
}

// SameShape reports whether t and other have identical shapes.
func (t *Tensor) SameShape(other *Tensor) bool {
	if len(t.shape) != len(other.shape) {
		return false
	}
	for i, d := range t.shape {
		if other.shape[i] != d {
			return false
		}
	}
	return true
}

// String renders a compact description, useful in error messages.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v", t.shape)
}
