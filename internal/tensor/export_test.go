package tensor

import "slices"

// FreeBytes reports the sizes in bytes, ascending, of the buffers the
// pool currently holds free, float64 and float32 alike — its parked
// working set.
func (p *Pool) FreeBytes() []int {
	var sizes []int
	for _, buf := range p.free {
		sizes = append(sizes, 8*cap(buf))
	}
	for _, buf := range p.free32 {
		sizes = append(sizes, 4*cap(buf))
	}
	slices.Sort(sizes)
	return sizes
}
