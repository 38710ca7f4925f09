package tensor

// FreeCaps reports the capacities, in elements and ascending, of the
// buffers the pool currently holds free — its parked working set.
func (p *Pool) FreeCaps() []int {
	caps := make([]int, len(p.free))
	for i, buf := range p.free {
		caps[i] = cap(buf)
	}
	return caps
}
