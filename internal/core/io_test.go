package core

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"path/filepath"
	"testing"

	"napmon/internal/nn"
	"napmon/internal/rng"
)

func TestMonitorSaveLoadFile(t *testing.T) {
	net, layer, train, val := trainedToyNet(t, 60)
	mon, err := Build(net, train, Config{Layer: layer, Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "toy.monitor")
	if err := mon.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Epoch() != mon.Epoch() {
		t.Fatalf("loaded monitor at epoch %d, want the file's epoch %d", loaded.Epoch(), mon.Epoch())
	}
	if a, b := Evaluate(net, mon, val), Evaluate(net, loaded, val); a != b {
		t.Fatalf("metrics differ after file round trip: %+v vs %+v", a, b)
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "absent.monitor")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestLoadTruncatedStream(t *testing.T) {
	// Corrupt/truncated monitor files must fail cleanly, never panic.
	net, layer, train, _ := trainedToyNet(t, 61)
	mon, err := Build(net, train, Config{Layer: layer, Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	full := snapBytes(t, mon)
	for _, cut := range []int{1, len(full) / 4, len(full) / 2, len(full) - 3} {
		if _, _, err := LoadSnapshot(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d bytes accepted", cut)
		}
	}
}

// rechecksum returns a copy of stream with the FNV-1a trailer recomputed
// over everything before the last four bytes, so a crafted or mutated
// stream gets past the checksum and reaches the field validators.
func rechecksum(stream []byte) []byte {
	if len(stream) < 4 {
		return stream
	}
	body := stream[:len(stream)-4]
	h := fnv.New32a()
	h.Write(body)
	return binary.LittleEndian.AppendUint32(body[:len(body):len(body)], h.Sum32())
}

// splice replaces the one-byte varint at off with v and re-checksums.
func splice(stream []byte, off int, v uint64) []byte {
	out := append([]byte(nil), stream[:off]...)
	out = binary.AppendUvarint(out, v)
	out = append(out, stream[off+1:]...)
	return rechecksum(out)
}

// TestLoadCorruptedHeader crafts header fields behind a valid checksum.
// Every one is an int(uvarint) cast at the decode site; a gamma of 2^63
// used to come back as a monitor that panicked on its first WatchPattern.
func TestLoadCorruptedHeader(t *testing.T) {
	good := snapBytes(t, snapMonitor(t, 1))
	// snapMonitor's header is one byte per field: magic, then layer,
	// gamma, epoch, layer width, n, 8 neuron deltas, class count, and
	// class 0's id, insert count and level count.
	const offLayer, offGamma, offWidth, offClass, offInserts = 8, 9, 11, 22, 23
	if _, _, err := LoadSnapshot(bytes.NewReader(splice(good, offGamma, 1))); err != nil {
		t.Fatalf("splicing the same gamma back broke the stream: %v", err)
	}
	for _, tc := range []struct {
		name string
		off  int
		v    uint64
	}{
		{"gamma 2^63", offGamma, 1 << 63},
		{"gamma 2^40", offGamma, 1 << 40},
		{"gamma width+1", offGamma, 9},
		{"layer -2", offLayer, 3}, // zigzag
		{"layer width 2^63", offWidth, 1 << 63},
		{"layer width below a neuron", offWidth, 7},
		{"class 2^63", offClass, 1 << 63},
		{"class 2^40", offClass, 1 << 40},
		{"inserts 2^63", offInserts, 1 << 63},
	} {
		m, _, err := LoadSnapshot(bytes.NewReader(splice(good, tc.off, tc.v)))
		if err == nil {
			t.Errorf("%s accepted (gamma %d)", tc.name, m.Gamma())
		}
	}
}

func TestBuildRejectsNonDenseOutput(t *testing.T) {
	// probeDims requires a fully-connected output layer.
	r := rng.New(63)
	net := nn.New(nn.NewDense(4, 4, r), nn.NewReLU())
	if _, err := Build(net, nil, Config{Layer: 1}); err == nil {
		t.Fatal("network without dense output accepted")
	}
}

func TestBuildRejectsMonitoredLayerBeforeAnyDense(t *testing.T) {
	r := rng.New(64)
	net := nn.New(nn.NewFlatten(), nn.NewDense(4, 2, r))
	if _, err := Build(net, nil, Config{Layer: 0}); err == nil {
		t.Fatal("monitored layer before any dense layer accepted")
	}
}
