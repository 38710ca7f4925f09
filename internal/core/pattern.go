// Package core implements the paper's contribution: runtime monitoring of
// neuron activation patterns. After training, Algorithm 1 feeds the
// training set back through the network, records the binary ReLU on/off
// pattern of a chosen close-to-output layer per class inside a BDD, and
// enlarges each class's pattern set to the γ-comfort zone by adding every
// pattern within Hamming distance γ (Definition 2) via one memoized BDD
// Hamming-ball pass. In operation the monitor flags a classification whose
// activation pattern falls outside the comfort zone of the predicted
// class: the decision is not supported by prior similarities in training.
package core

import (
	"encoding/binary"
	"fmt"

	"napmon/internal/bdd"
	"napmon/internal/tensor"
)

// Pattern is a neuron activation pattern (Definition 1): one bit per
// monitored neuron, true when the neuron's output is strictly positive
// (the ReLU "activated" case of prelu).
type Pattern []bool

// PatternOf extracts the activation pattern of a full layer output
// (pat(f^(l)(in)) in the paper).
func PatternOf(acts *tensor.Tensor) Pattern {
	p := make(Pattern, acts.Len())
	for i, v := range acts.Data() {
		p[i] = v > 0
	}
	return p
}

// PatternOfSubset extracts the activation pattern restricted to the listed
// neuron indices, in order. Used when gradient-based selection monitors
// only a subset of a wide layer.
func PatternOfSubset(acts *tensor.Tensor, neurons []int) Pattern {
	p := make(Pattern, len(neurons))
	data := acts.Data()
	for i, n := range neurons {
		if n < 0 || n >= len(data) {
			panic(fmt.Sprintf("core: neuron index %d out of range [0,%d)", n, len(data)))
		}
		p[i] = data[n] > 0
	}
	return p
}

// PatternOfRow extracts the activation pattern of one row of a stacked
// batch activation matrix (the ForwardBatch layout), restricted to the
// listed neuron indices. It is PatternOfSubset over a raw slice, used by
// the batched serving path to avoid wrapping every row in a tensor.
func PatternOfRow(row []float64, neurons []int) Pattern {
	p := make(Pattern, len(neurons))
	for i, n := range neurons {
		if n < 0 || n >= len(row) {
			panic(fmt.Sprintf("core: neuron index %d out of range [0,%d)", n, len(row)))
		}
		p[i] = row[n] > 0
	}
	return p
}

// ParsePattern decodes the 0/1 string form produced by Pattern.String —
// the wire format of the napmon-serve /watch response and /learn request,
// which lets a client feed flagged patterns straight back into the
// monitor's online updater.
func ParsePattern(s string) (Pattern, error) {
	p := make(Pattern, len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '0':
		case '1':
			p[i] = true
		default:
			return nil, fmt.Errorf("core: pattern byte %d is %q, want '0' or '1'", i, s[i])
		}
	}
	return p, nil
}

// Hamming returns the Hamming distance H(p, q) between two equal-length
// patterns.
func Hamming(p, q Pattern) int {
	if len(p) != len(q) {
		panic("core: Hamming distance of unequal-length patterns")
	}
	d := 0
	for i := range p {
		if p[i] != q[i] {
			d++
		}
	}
	return d
}

// Clone returns a copy of p.
func (p Pattern) Clone() Pattern { return append(Pattern(nil), p...) }

// String renders the pattern as a 0/1 string, most significant neuron
// first, e.g. "0101".
func (p Pattern) String() string {
	b := make([]byte, len(p))
	for i, v := range p {
		if v {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b)
}

// PackedLen returns the byte length of the bit-packed form of a
// width-bit pattern: 8 neurons per byte, so ceil(width/8).
func PackedLen(width int) int { return (width + 7) / 8 }

// AppendPacked appends the bit-packed form of p to dst and returns the
// extended slice: neuron i lands in bit i%8 of byte i/8 (LSB-first),
// trailing pad bits of the last byte are zero. This is THE bit-packed
// pattern codec — Pattern.Key, the monitor save format and the binary
// wire protocol (internal/wire) all encode through it, so the HTTP
// string path (String/ParsePattern) and the wire path cannot drift.
// Each 64 neurons are packed by bdd.PackBits, whose word written
// little-endian is that LSB-first byte order.
func (p Pattern) AppendPacked(dst []byte) []byte {
	var word [8]byte
	for v := 0; v < len(p); v += 64 {
		chunk := p[v:min(v+64, len(p))]
		binary.LittleEndian.PutUint64(word[:], bdd.PackBits(chunk))
		dst = append(dst, word[:PackedLen(len(chunk))]...)
	}
	return dst
}

// UnpackPattern decodes the AppendPacked form: exactly PackedLen(width)
// bytes, LSB-first within each byte, with every pad bit of the last
// byte zero. The strict length and pad checks make the encoding
// canonical — one pattern, one byte string — which the wire protocol's
// golden-byte ABI tests and fuzzer rely on.
func UnpackPattern(data []byte, width int) (Pattern, error) {
	if width < 0 {
		return nil, fmt.Errorf("core: negative pattern width %d", width)
	}
	if len(data) != PackedLen(width) {
		return nil, fmt.Errorf("core: packed pattern is %d bytes, width %d needs %d", len(data), width, PackedLen(width))
	}
	if pad := len(data)*8 - width; pad > 0 && data[len(data)-1]>>(8-pad) != 0 {
		return nil, fmt.Errorf("core: nonzero pad bits in packed pattern of width %d", width)
	}
	p := make(Pattern, width)
	for i := range p {
		p[i] = data[i/8]&(1<<(i%8)) != 0
	}
	return p, nil
}

// Key packs the pattern into a compact string usable as a map key (the
// AppendPacked form). Patterns of different lengths never collide
// because the length is prefixed.
func (p Pattern) Key() string {
	b := make([]byte, 2, 2+PackedLen(len(p)))
	b[0] = byte(len(p) >> 8)
	b[1] = byte(len(p))
	return string(p.AppendPacked(b))
}
