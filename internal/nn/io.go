package nn

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"napmon/internal/rng"
)

// Model files consist of a JSON header (layer specs) terminated by a
// newline, followed by all parameter tensors and BatchNorm running
// statistics as little-endian float64 in layer order. The format is
// self-describing enough to rebuild the architecture and bit-exact for
// the weights.

type modelHeader struct {
	Format string `json:"format"`
	Specs  []Spec `json:"specs"`
}

const modelFormat = "napmon-model-v1"

// Save writes the network architecture and parameters to w.
func (n *Network) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	hdr, err := json.Marshal(modelHeader{Format: modelFormat, Specs: n.Specs()})
	if err != nil {
		return err
	}
	if _, err := bw.Write(append(hdr, '\n')); err != nil {
		return err
	}
	for _, a := range n.persisted() {
		for _, v := range a.v.Data() {
			if err := binary.Write(bw, binary.LittleEndian, math.Float64bits(v)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Load reads a network previously written with Save.
func Load(r io.Reader) (*Network, error) {
	br := bufio.NewReader(r)
	line, err := br.ReadBytes('\n')
	if err != nil {
		return nil, fmt.Errorf("nn: reading model header: %w", err)
	}
	var hdr modelHeader
	if err := json.Unmarshal(line, &hdr); err != nil {
		return nil, fmt.Errorf("nn: decoding model header: %w", err)
	}
	if hdr.Format != modelFormat {
		return nil, fmt.Errorf("nn: unsupported model format %q", hdr.Format)
	}
	net, err := Build(hdr.Specs, rng.New(0))
	if err != nil {
		return nil, err
	}
	for _, w := range net.persisted() {
		for i := range w.v.Data() {
			var bits uint64
			if err := binary.Read(br, binary.LittleEndian, &bits); err != nil {
				return nil, fmt.Errorf("nn: reading parameters: %w", err)
			}
			w.v.Data()[i] = math.Float64frombits(bits)
		}
		w.sync()
	}
	return net, nil
}

// persisted returns every array that must round-trip through a model
// file: learnable parameters plus BatchNorm running statistics.
func (n *Network) persisted() []*weight {
	var ws []*weight
	for _, l := range n.layers {
		ws = append(ws, l.weights()...)
		if bn, ok := l.(*BatchNorm); ok {
			ws = append(ws, &bn.runMean, &bn.runVar)
		}
	}
	return ws
}

// SaveFile writes the model to the named file.
func (n *Network) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := n.Save(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile reads a model from the named file.
func LoadFile(path string) (*Network, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
