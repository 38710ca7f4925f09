// Compact monitor snapshots: the one persisted form of a monitor — the
// monitor file (SaveFile/LoadFile), the body of GET
// /v1/models/{name}/snapshot and a follower's bootstrap are the same
// bytes. A snapshot serializes the *serving* state — every zone's
// compiled query plans, varint/literal-run framed, plus an epoch-keyed
// tail of recent deltas with bit-packed patterns — so a replica can
// warm-start mid-stream: load the snapshot, publish the leader's exact
// epoch id, and converge bit-for-bit by replaying the delta entries whose
// epoch keys exceed its own (the same monotone-key addressing the epoch
// machinery already serves by).
//
// Layout (all integers varint; signed values zigzag):
//
//	"NAPSNAP1"                            8-byte magic
//	layer (zigzag; -1 = pattern-built)    monitor configuration
//	gamma, epoch, layerWidth              serving-epoch γ (≤ n), id, d_l
//	n, neuron[0], Δneuron...              monitored neurons, delta-coded
//	numClasses, then per class ascending:
//	  class, inserts, levels
//	  per level one plan: entry code (0 false / 1 true / entry+2),
//	    then progLen and literal runs — [runLen, Δva, branch targets...]
//	    with each lo/hi coded 0 false / 1 true / (target-index)+1
//	delta tail: count, then per entry epoch, kind (0 patterns/1 gamma),
//	  and either per-class bit-packed pattern blocks or the new γ
//	uint32 LE FNV-1a                      over magic + body
//
// The target encoding is relative to the consuming branch, so codes stay
// small for the dense forward-local programs Compile emits, and the
// va runs collapse each level's column to two varints — the same
// "literal run + copy" economy as an LZO literal stream, without the
// match machinery a canonical branch program cannot use anyway.

package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"

	"napmon/internal/bdd"
)

var snapshotMagic = []byte("NAPSNAP1")
var deltaMagic = []byte("NAPDELT1")

// DeltaEntry is one replicated epoch publication: the update that moved
// the leader's monitor to Epoch. Gamma >= 0 records an UpdateGamma
// re-level; otherwise Delta holds the per-class patterns an UpdateBatch
// absorbed. Entries are totally ordered by their epoch key.
type DeltaEntry struct {
	Epoch uint64
	Gamma int // -1 for a pattern entry
	Delta map[int][]Pattern
}

// Snapshot writes the monitor's serving state to w in the compact
// snapshot format. The serving epoch is loaded once for the whole write,
// so the snapshot captures one consistent generation even under
// concurrent updates. A zone with a pending overlay is written as a
// folded copy of its plans that the snapshot does not keep: compiled
// plans are canonical, so the bytes do not depend on when (or whether)
// the monitor folded. tail is an optional epoch-keyed delta log to embed
// (the registry passes its recent entries so a follower of a follower can
// chain).
func (m *Monitor) Snapshot(w io.Writer, tail []DeltaEntry) error {
	return m.writeSnapshot(w, m.cur.Load(), tail)
}

// SnapshotCut takes the consistent cut of a snapshot without writing it:
// it loads the serving epoch and copies tail, and folds and encodes
// nothing. The returned function writes that cut, byte for byte what
// Snapshot would have written at the call, however many updates publish
// in between. A caller that must hold a lock to keep the epoch and tail
// consistent (the registry's delta log) holds it only for the cut, not
// for the folds of pending overlays and the encoding.
func (m *Monitor) SnapshotCut(tail []DeltaEntry) func(io.Writer) error {
	e := m.cur.Load()
	tail = append([]DeltaEntry(nil), tail...)
	return func(w io.Writer) error { return m.writeSnapshot(w, e, tail) }
}

// writeSnapshot encodes epoch e and tail in the snapshot format.
func (m *Monitor) writeSnapshot(w io.Writer, e *epoch, tail []DeltaEntry) error {
	body := append([]byte(nil), snapshotMagic...)
	body = binary.AppendVarint(body, int64(m.cfg.Layer))
	body = binary.AppendUvarint(body, uint64(e.gamma))
	body = binary.AppendUvarint(body, e.id)
	body = binary.AppendUvarint(body, uint64(m.width))
	body = binary.AppendUvarint(body, uint64(len(m.neurons)))
	prev := 0
	for i, n := range m.neurons {
		if i == 0 {
			body = binary.AppendUvarint(body, uint64(n))
		} else {
			body = binary.AppendUvarint(body, uint64(n-prev))
		}
		prev = n
	}

	classes := make([]int, 0, len(e.zones))
	for c := range e.zones {
		classes = append(classes, c)
	}
	sort.Ints(classes)
	body = binary.AppendUvarint(body, uint64(len(classes)))
	for _, c := range classes {
		z := e.zones[c]
		body = binary.AppendUvarint(body, uint64(c))
		body = binary.AppendUvarint(body, uint64(z.base))
		plans := z.folded()
		body = binary.AppendUvarint(body, uint64(len(plans)))
		for _, plan := range plans {
			body = appendPlan(body, plan)
		}
	}

	var err error
	if body, err = appendDeltaTail(body, len(m.neurons), tail); err != nil {
		return err
	}
	return finishChecksummed(w, body)
}

// appendPlan writes one compiled branch program.
func appendPlan(dst []byte, p *bdd.Compiled) []byte {
	entry := p.Entry()
	if p.Len() == 0 {
		if entry == bdd.TerminalTrue {
			return binary.AppendUvarint(dst, 1)
		}
		return binary.AppendUvarint(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(entry)+2)
	dst = binary.AppendUvarint(dst, uint64(p.Len()))
	prevVa := int32(0)
	for i := 0; i < p.Len(); {
		va := p.Branch(i).Va
		run := i + 1
		for run < p.Len() && p.Branch(run).Va == va {
			run++
		}
		dst = binary.AppendUvarint(dst, uint64(run-i))
		dst = binary.AppendUvarint(dst, uint64(va-prevVa))
		prevVa = va
		for ; i < run; i++ {
			b := p.Branch(i)
			dst = binary.AppendUvarint(dst, targetCode(i, b.Lo))
			dst = binary.AppendUvarint(dst, targetCode(i, b.Hi))
		}
	}
	return dst
}

// targetCode encodes a branch target relative to the branch consuming
// it: 0 false, 1 true, else the forward distance-based index code.
func targetCode(i int, t int32) uint64 {
	switch t {
	case bdd.TerminalFalse:
		return 0
	case bdd.TerminalTrue:
		return 1
	default:
		return uint64(t-int32(i)) + 1
	}
}

// appendDeltaTail writes the epoch-keyed delta entries.
func appendDeltaTail(dst []byte, width int, tail []DeltaEntry) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(tail)))
	for _, e := range tail {
		dst = binary.AppendUvarint(dst, e.Epoch)
		if e.Gamma >= 0 {
			if err := checkGamma(e.Gamma, width); err != nil {
				return nil, fmt.Errorf("%w (delta epoch %d)", err, e.Epoch)
			}
			dst = binary.AppendUvarint(dst, 1)
			dst = binary.AppendUvarint(dst, uint64(e.Gamma))
			continue
		}
		dst = binary.AppendUvarint(dst, 0)
		classes := make([]int, 0, len(e.Delta))
		for c := range e.Delta {
			classes = append(classes, c)
		}
		sort.Ints(classes)
		dst = binary.AppendUvarint(dst, uint64(len(classes)))
		for _, c := range classes {
			pats := e.Delta[c]
			dst = binary.AppendUvarint(dst, uint64(c))
			dst = binary.AppendUvarint(dst, uint64(len(pats)))
			for _, p := range pats {
				if len(p) != width {
					return nil, fmt.Errorf("core: delta epoch %d class %d pattern width %d, snapshot width %d",
						e.Epoch, c, len(p), width)
				}
				dst = p.AppendPacked(dst)
			}
		}
	}
	return dst, nil
}

// finishChecksummed appends the FNV-1a trailer and writes the frame.
func finishChecksummed(w io.Writer, body []byte) error {
	h := fnv.New32a()
	h.Write(body)
	body = binary.LittleEndian.AppendUint32(body, h.Sum32())
	_, err := w.Write(body)
	return err
}

// snapReader decodes a checksummed varint stream with sticky errors.
type snapReader struct {
	data []byte
	off  int
	err  error
}

func (r *snapReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("core: snapshot: "+format, args...)
	}
}

func (r *snapReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail("truncated varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *snapReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		r.fail("truncated varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// count reads a length-prefix and bounds it by what the remaining bytes
// could possibly hold (at least one byte per element), so a hostile
// prefix cannot drive a huge allocation.
func (r *snapReader) count(what string) int {
	v := r.uvarint()
	if r.err == nil && v > uint64(len(r.data)-r.off) {
		r.fail("%s count %d exceeds remaining %d bytes", what, v, len(r.data)-r.off)
		return 0
	}
	return int(v)
}

// bounded reads a value that must not exceed max, so its int conversion
// can neither wrap negative nor hand a hostile magnitude to code that
// indexes, allocates or iterates by it.
func (r *snapReader) bounded(what string, max int) int {
	v := r.uvarint()
	if r.err == nil && v > uint64(max) {
		r.fail("%s %d exceeds %d", what, v, max)
		return 0
	}
	return int(v)
}

func (r *snapReader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.data)-r.off < n {
		r.fail("truncated: need %d bytes at offset %d", n, r.off)
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// openChecksummed validates magic and the FNV-1a trailer and returns a
// reader over the body past the magic.
func openChecksummed(data, magic []byte) (*snapReader, error) {
	if len(data) < len(magic)+4 {
		return nil, fmt.Errorf("core: snapshot stream truncated (%d bytes)", len(data))
	}
	if string(data[:len(magic)]) != string(magic) {
		return nil, fmt.Errorf("core: bad snapshot magic %q", data[:len(magic)])
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	h := fnv.New32a()
	h.Write(body)
	if got, want := h.Sum32(), binary.LittleEndian.Uint32(trailer); got != want {
		return nil, fmt.Errorf("core: snapshot checksum mismatch: computed %#x, stored %#x", got, want)
	}
	return &snapReader{data: body, off: len(magic)}, nil
}

// LoadSnapshot reads a snapshot written by Monitor.Snapshot and returns
// a monitor serving at the snapshot's epoch id, plus the embedded delta
// tail. Loading is validate-and-keep: a zone is its plans, and
// bdd.NewCompiled admits a plan only in the one form Compile emits for
// its function, so nothing is rebuilt and the loaded monitor
// re-serializes byte-identically (the replication tests pin it).
func LoadSnapshot(r io.Reader) (*Monitor, []DeltaEntry, error) {
	// io.Copy moves a bytes.Reader (every in-process caller) in one write;
	// io.ReadAll grows by appends and allocates the stream ~5 times over.
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, r); err != nil {
		return nil, nil, err
	}
	sr, err := openChecksummed(buf.Bytes(), snapshotMagic)
	if err != nil {
		return nil, nil, err
	}

	layer := sr.varint()
	gamma := sr.bounded("gamma", math.MaxInt32)
	epochID := sr.uvarint()
	layerWidth := sr.bounded("layer width", math.MaxInt32)
	numNeurons := sr.count("neuron")
	if sr.err != nil {
		return nil, nil, sr.err
	}
	if layer < -1 || layer > math.MaxInt32 {
		return nil, nil, fmt.Errorf("core: snapshot layer %d out of range", layer)
	}
	if numNeurons <= 0 {
		return nil, nil, fmt.Errorf("core: snapshot has no monitored neurons")
	}
	if err := checkGamma(gamma, numNeurons); err != nil {
		return nil, nil, err
	}
	if epochID == 0 {
		return nil, nil, fmt.Errorf("core: snapshot epoch 0 (epochs start at 1)")
	}
	neurons := make([]int, numNeurons)
	prev := -1
	for i := range neurons {
		d := sr.bounded("neuron", layerWidth)
		if i == 0 {
			neurons[i] = d
		} else {
			neurons[i] = prev + d
		}
		if sr.err == nil && (neurons[i] <= prev || neurons[i] >= layerWidth) {
			return nil, nil, fmt.Errorf("core: snapshot neuron %d out of order or out of range [0,%d)", neurons[i], layerWidth)
		}
		prev = neurons[i]
	}
	width := numNeurons

	numClasses := sr.count("class")
	if sr.err != nil {
		return nil, nil, sr.err
	}
	zones := make(map[int]*Zone, numClasses)
	classes := make([]int, 0, numClasses)
	prevClass := -1
	for ci := 0; ci < numClasses; ci++ {
		c := sr.bounded("class", math.MaxInt32)
		base := sr.bounded("insert count", math.MaxInt)
		levels := sr.count("level")
		if sr.err != nil {
			return nil, nil, sr.err
		}
		if c <= prevClass {
			return nil, nil, fmt.Errorf("core: snapshot classes out of order at %d", c)
		}
		prevClass = c
		if levels <= gamma {
			return nil, nil, fmt.Errorf("core: snapshot class %d has %d levels, gamma %d", c, levels, gamma)
		}
		plans := make([]*bdd.Compiled, levels)
		for li := range plans {
			var err error
			if plans[li], err = readPlan(sr, width); err != nil {
				return nil, nil, fmt.Errorf("core: snapshot class %d level %d: %w", c, li, err)
			}
		}
		zones[c] = &Zone{width: width, plans: plans, view: new(zoneView), gamma: gamma, base: base}
		classes = append(classes, c)
	}

	tail, err := readDeltaTail(sr, width)
	if err != nil {
		return nil, nil, err
	}
	if sr.off != len(sr.data) {
		return nil, nil, fmt.Errorf("core: snapshot has %d trailing bytes", len(sr.data)-sr.off)
	}
	if len(zones) == 0 {
		return nil, nil, fmt.Errorf("core: snapshot has no zones")
	}

	m := &Monitor{
		cfg:     Config{Layer: int(layer), Gamma: gamma, Classes: classes},
		neurons: neurons,
		width:   layerWidth,
	}
	m.serve(epochID, gamma, zones)
	return m, tail, nil
}

// readPlan decodes one compiled branch program.
func readPlan(sr *snapReader, numVars int) (*bdd.Compiled, error) {
	code := sr.uvarint()
	if sr.err != nil {
		return nil, sr.err
	}
	switch code {
	case 0:
		return bdd.NewCompiled(numVars, bdd.TerminalFalse, nil)
	case 1:
		return bdd.NewCompiled(numVars, bdd.TerminalTrue, nil)
	}
	entry := int32(code - 2)
	progLen := sr.count("branch")
	branches := make([]bdd.PlanBranch, progLen)
	va := int32(0)
	for i := 0; i < progLen; {
		runLen := sr.bounded("plan run", progLen-i)
		va += int32(sr.bounded("plan variable step", numVars))
		if sr.err != nil {
			return nil, sr.err
		}
		if runLen == 0 {
			return nil, fmt.Errorf("core: empty plan run at branch %d", i)
		}
		for end := i + runLen; i < end; i++ {
			lo, err := decodeTarget(i, sr.uvarint())
			if err != nil {
				return nil, err
			}
			hi, err := decodeTarget(i, sr.uvarint())
			if err != nil {
				return nil, err
			}
			branches[i] = bdd.PlanBranch{Va: va, Lo: lo, Hi: hi}
		}
	}
	if sr.err != nil {
		return nil, sr.err
	}
	return bdd.NewCompiled(numVars, entry, branches)
}

func decodeTarget(i int, code uint64) (int32, error) {
	switch code {
	case 0:
		return bdd.TerminalFalse, nil
	case 1:
		return bdd.TerminalTrue, nil
	}
	t := int64(i) + int64(code) - 1
	if t > int64(^uint32(0)>>1) {
		return 0, fmt.Errorf("core: plan target code %d overflows from branch %d", code, i)
	}
	return int32(t), nil
}

// readDeltaTail decodes the epoch-keyed delta entries.
func readDeltaTail(sr *snapReader, width int) ([]DeltaEntry, error) {
	n := sr.count("delta entry")
	if sr.err != nil {
		return nil, sr.err
	}
	entries := make([]DeltaEntry, 0, n)
	packed := PackedLen(width)
	for i := 0; i < n; i++ {
		e := DeltaEntry{Epoch: sr.uvarint(), Gamma: -1}
		kind := sr.uvarint()
		switch kind {
		case 1:
			e.Gamma = sr.bounded("delta gamma", width)
		case 0:
			nc := sr.count("delta class")
			if sr.err != nil {
				return nil, sr.err
			}
			e.Delta = make(map[int][]Pattern, nc)
			for j := 0; j < nc; j++ {
				c := sr.bounded("delta class", math.MaxInt32)
				np := sr.count("delta pattern")
				if sr.err != nil {
					return nil, sr.err
				}
				pats := make([]Pattern, 0, np)
				for k := 0; k < np; k++ {
					raw := sr.bytes(packed)
					if sr.err != nil {
						return nil, sr.err
					}
					p, err := UnpackPattern(raw, width)
					if err != nil {
						return nil, err
					}
					pats = append(pats, p)
				}
				e.Delta[c] = pats
			}
		default:
			if sr.err == nil {
				sr.fail("delta entry %d has unknown kind %d", i, kind)
			}
		}
		if sr.err != nil {
			return nil, sr.err
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// EncodeDeltaStream frames a batch of epoch-keyed delta entries for the
// replication feed (GET /v1/models/{name}/deltas): the same entry
// encoding as the snapshot tail, standalone with its own magic and
// checksum so a follower validates every batch independently.
func EncodeDeltaStream(width int, entries []DeltaEntry) ([]byte, error) {
	body := append([]byte(nil), deltaMagic...)
	body = binary.AppendUvarint(body, uint64(width))
	var err error
	if body, err = appendDeltaTail(body, width, entries); err != nil {
		return nil, err
	}
	h := fnv.New32a()
	h.Write(body)
	return binary.LittleEndian.AppendUint32(body, h.Sum32()), nil
}

// DecodeDeltaStream reads an EncodeDeltaStream frame, validating the
// checksum and that the stream's pattern width matches width.
func DecodeDeltaStream(data []byte, width int) ([]DeltaEntry, error) {
	sr, err := openChecksummed(data, deltaMagic)
	if err != nil {
		return nil, err
	}
	if w := sr.uvarint(); sr.err == nil && w != uint64(width) {
		return nil, fmt.Errorf("core: delta stream width %d, monitor width %d", w, width)
	}
	entries, err := readDeltaTail(sr, width)
	if err != nil {
		return nil, err
	}
	if sr.err != nil {
		return nil, sr.err
	}
	if sr.off != len(sr.data) {
		return nil, fmt.Errorf("core: delta stream has %d trailing bytes", len(sr.data)-sr.off)
	}
	return entries, nil
}
