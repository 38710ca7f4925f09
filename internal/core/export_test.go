package core

// learnAt is UpdateBatch with each zone's overlay capped at k patterns in
// place of overlayCap. k = 0 folds every learn into the plans — the path
// the monitor took before zones had an overlay — and k = 1 folds every
// learn of more than one pattern, so the differential tests can run the
// same learn stream through every fold schedule side by side.
func (m *Monitor) learnAt(k int, delta map[int][]Pattern) (uint64, error) {
	return m.updateBatch(delta, k)
}
