package core

import "os"

// Monitors are built once after training (Algorithm 1) and then deployed.
// The file on disk is the compact snapshot of snapshot.go — the same bytes
// GET /v1/models/{name}/snapshot serves and a follower bootstraps from —
// with an empty delta tail.

// SaveFile writes the monitor's snapshot (Monitor.Snapshot) to the named
// file.
func (m *Monitor) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := m.Snapshot(f, nil); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile reads a monitor from a snapshot file. The monitor serves at
// the file's epoch; a delta tail in the file is discarded.
func LoadFile(path string) (*Monitor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, _, err := LoadSnapshot(f)
	return m, err
}
