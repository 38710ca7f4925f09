package core

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math/bits"
	"testing"

	"napmon/internal/bdd"
)

// FuzzPatternRoundTrip fuzzes the pattern encodings the serving and
// online-update wire paths rely on: the 0/1 String form (the
// napmon-serve /watch response and /learn request body) must round-trip
// through ParsePattern bit-exactly, the compact Key form must be
// injective, and a fuzzed pattern inserted into a zone must be found by
// the BDD membership query at γ=0 and at every Hamming-neighbor level.
func FuzzPatternRoundTrip(f *testing.F) {
	f.Add([]byte{0x00})
	f.Add([]byte{0xFF, 0x0F})
	f.Add([]byte{0xAA, 0x55, 0xC3})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 8 {
			return // keep zones small: ≤ 64 neurons
		}
		width := len(data) * 8
		p := make(Pattern, width)
		for i := range p {
			p[i] = data[i/8]&(1<<(i%8)) != 0
		}

		// String → ParsePattern round trip.
		s := p.String()
		if len(s) != width {
			t.Fatalf("String length %d, want %d", len(s), width)
		}
		q, err := ParsePattern(s)
		if err != nil {
			t.Fatalf("ParsePattern(%q): %v", s, err)
		}
		if Hamming(p, q) != 0 {
			t.Fatalf("round trip changed the pattern: %s -> %s", p, q)
		}

		// ParsePattern rejects anything outside {0,1}.
		if _, err := ParsePattern(s + "2"); err == nil {
			t.Fatal("ParsePattern accepted a '2'")
		}

		// AppendPacked → UnpackPattern round trip, and agreement with
		// the string codec — the shared-codec invariant the binary wire
		// protocol (internal/wire) depends on.
		packed := p.AppendPacked(nil)
		up, err := UnpackPattern(packed, width)
		if err != nil {
			t.Fatalf("UnpackPattern: %v", err)
		}
		if Hamming(p, up) != 0 {
			t.Fatalf("packed round trip changed the pattern: %s -> %s", p, up)
		}
		if Hamming(q, up) != 0 {
			t.Fatal("string codec and packed codec disagree")
		}

		// Key is injective against every 1-bit neighbor (and self-equal).
		if p.Key() != q.Key() {
			t.Fatal("equal patterns produced different keys")
		}
		for i := 0; i < width; i++ {
			n := p.Clone()
			n[i] = !n[i]
			if n.Key() == p.Key() {
				t.Fatalf("key collision with neighbor %d", i)
			}
		}

		// Zone round trip: the inserted pattern is a member at γ=0; its
		// 1-bit neighbors are members exactly at γ≥1 (and are the only
		// distance-1 additions).
		z := buildZone(width, 1, p)
		if !containsAt(t, z, 0, p) {
			t.Fatal("inserted pattern not in zone at gamma 0")
		}
		for i := 0; i < width; i++ {
			n := p.Clone()
			n[i] = !n[i]
			if containsAt(t, z, 0, n) {
				t.Fatalf("distance-1 neighbor %d in zone at gamma 0", i)
			}
			if !z.Contains(n) {
				t.Fatalf("distance-1 neighbor %d missing at gamma 1", i)
			}
		}
		if got, want := z.PatternCount(), float64(1+width); got != want {
			t.Fatalf("gamma-1 ball holds %v patterns, want %v", got, want)
		}
	})
}

// maxFuzzStream bounds the streams the decoder fuzzers look at. A decode
// allocates in proportion to its input (no per-class BDD manager), so the
// cap is about time per execution, not a fuzz worker's memory.
const maxFuzzStream = 64 << 10

// FuzzLoadSnapshot fuzzes the one decoder for monitor bytes that arrive
// from outside the process (a monitor file, a leader's snapshot body).
// Each input is tried raw and with its FNV trailer recomputed, so
// mutations reach the field validators instead of dying at the checksum.
// An accepted monitor must be servable — 0 ≤ γ ≤ width, WatchPattern
// answers on every class — and canonical twice over: every plan the
// loader kept is the one rebuilding its diagram and compiling it again
// gives (the loader no longer does that itself), and the monitor's
// snapshot loads again and re-encodes to the same bytes.
func FuzzLoadSnapshot(f *testing.F) {
	golden, err := hex.DecodeString(snapshotGolden)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for gamma := 0; gamma <= 2; gamma++ {
		var buf bytes.Buffer
		if err := snapMonitor(f, gamma).Snapshot(&buf, snapTail()); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > maxFuzzStream {
			return
		}
		for _, stream := range [][]byte{data, rechecksum(data)} {
			m, tail, err := LoadSnapshot(bytes.NewReader(stream))
			if err != nil {
				continue
			}
			width := len(m.Neurons())
			if g := m.Gamma(); g < 0 || g > width {
				t.Fatalf("accepted gamma %d outside [0,%d]", g, width)
			}
			probe := make(Pattern, width)
			for _, c := range m.Classes() {
				if _, monitored := m.WatchPattern(c, probe); !monitored {
					t.Fatalf("class %d listed but not monitored", c)
				}
				for li, plan := range m.Zone(c).plans {
					mgr := bdd.NewManager(width)
					root, err := mgr.FromCompiled(plan)
					if err != nil {
						t.Fatalf("class %d level %d: %v", c, li, err)
					}
					if again := mgr.Compile(root)[0]; !bytes.Equal(appendPlan(nil, again), appendPlan(nil, plan)) {
						t.Fatalf("class %d level %d: accepted plan is not canonical: Compile(FromCompiled(p)) != p", c, li)
					}
				}
			}
			var first, second bytes.Buffer
			if err := m.Snapshot(&first, tail); err != nil {
				t.Fatalf("accepted monitor does not snapshot: %v", err)
			}
			m2, tail2, err := LoadSnapshot(bytes.NewReader(first.Bytes()))
			if err != nil {
				t.Fatalf("snapshot of an accepted monitor rejected: %v", err)
			}
			if err := m2.Snapshot(&second, tail2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatalf("Snapshot -> LoadSnapshot -> Snapshot changed the bytes:\n%x\n%x", first.Bytes(), second.Bytes())
			}
		}
	})
}

// FuzzDecodeDeltaStream fuzzes the replication feed's decoder the same
// way (raw and re-checksummed), decoding at the width the stream itself
// declares. Accepted entries must be ones a follower can act on: γ within
// [0,width] or a pattern delta of full-width patterns under non-negative
// classes, re-encoding to a stream that decodes to the same bytes; at the
// seeds' width they are replayed into a live monitor, which may refuse
// them but must not panic.
func FuzzDecodeDeltaStream(f *testing.F) {
	seed, err := EncodeDeltaStream(8, snapTail())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(splice(seed, len(seed)-5, 8)) // the γ entry at its bound
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > maxFuzzStream || len(data) <= len(deltaMagic) {
			return
		}
		w, _ := binary.Uvarint(data[len(deltaMagic):])
		if w == 0 || w > 256 {
			return
		}
		width := int(w)
		for _, stream := range [][]byte{data, rechecksum(data)} {
			entries, err := DecodeDeltaStream(stream, width)
			if err != nil {
				continue
			}
			for i, e := range entries {
				if e.Gamma < -1 || e.Gamma > width || (e.Gamma >= 0) == (e.Delta != nil) {
					t.Fatalf("entry %d: gamma %d with delta %v at width %d", i, e.Gamma, e.Delta != nil, width)
				}
				for c, pats := range e.Delta {
					if c < 0 {
						t.Fatalf("entry %d: negative class %d", i, c)
					}
					for _, p := range pats {
						if len(p) != width {
							t.Fatalf("entry %d class %d: pattern width %d, want %d", i, c, len(p), width)
						}
					}
				}
			}
			first, err := EncodeDeltaStream(width, entries)
			if err != nil {
				t.Fatalf("accepted entries do not re-encode: %v", err)
			}
			again, err := DecodeDeltaStream(first, width)
			if err != nil {
				t.Fatalf("re-encoded stream rejected: %v", err)
			}
			second, err := EncodeDeltaStream(width, again)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first, second) {
				t.Fatalf("Encode -> Decode -> Encode changed the bytes:\n%x\n%x", first, second)
			}
			if width != 8 {
				continue
			}
			follower := snapMonitor(t, 1)
			for _, e := range entries {
				// Errors (unmonitored class, say) are the follower's to
				// report; only a panic is a finding.
				if e.Gamma >= 0 {
					_, _ = follower.UpdateGamma(e.Gamma)
				} else {
					_, _ = follower.UpdateBatch(e.Delta)
				}
			}
		}
	})
}

// FuzzZoneLearnStream drives a two-class monitor through a fuzzed stream
// of learns at a small overlay cap (0–4 patterns, so folds and overlay
// appends interleave) and, after every learn, checks every pattern of the
// ≤ 12-neuron universe against brute-force Hamming distance to what the
// class has learned, through Contains and ContainsBatch. At the end the
// monitor must snapshot to the same bytes as a twin that folded every
// learn.
//
// Input: width, γ and cap bytes, then learns of one header byte (bit 0
// the class, bits 1–2 the pattern count less one) and two little-endian
// bytes per pattern.
func FuzzZoneLearnStream(f *testing.F) {
	f.Add([]byte{8, 1, 2, 0x06, 0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC, 0xDE, 0xF0, 0x01, 0xFF, 0x00, 0x03, 0x0F, 0xF0})
	f.Add([]byte{11, 3, 1, 0x00, 0xFF, 0x07, 0x01, 0x00, 0x00, 0x07, 0x01, 0x07, 0xAA, 0x05, 0x55, 0x02})
	f.Add([]byte{1, 0, 0, 0x01, 0x01, 0x00, 0x00, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 || len(data) > 96 {
			return
		}
		width := 1 + int(data[0])%12
		gamma := int(data[1]) % (min(width, 3) + 1)
		k := int(data[2]) % 5
		data = data[3:]
		classes := map[int][]Pattern{0: nil, 1: nil}
		mon, err := BuildFromPatterns(width, gamma, classes)
		if err != nil {
			t.Fatal(err)
		}
		twin, err := BuildFromPatterns(width, gamma, classes)
		if err != nil {
			t.Fatal(err)
		}
		universe := make([][]bool, 1<<width)
		for v := range universe {
			universe[v] = make([]bool, width)
			for i := range universe[v] {
				universe[v][i] = v&(1<<i) != 0
			}
		}
		// dist[c][v] is the Hamming distance from pattern v to the nearest
		// pattern class c has learned (width+1: none yet).
		var dist [2][]int
		for c := range dist {
			dist[c] = make([]int, len(universe))
			for v := range dist[c] {
				dist[c][v] = width + 1
			}
		}
		out := make([]bool, len(universe))
		for len(data) >= 3 {
			c, n := int(data[0]&1), 1+int(data[0]>>1)%4
			data = data[1:]
			var pats []Pattern
			for ; n > 0 && len(data) >= 2; n-- {
				v := int(binary.LittleEndian.Uint16(data)) & (1<<width - 1)
				data = data[2:]
				pats = append(pats, Pattern(universe[v]).Clone())
				for u := range dist[c] {
					dist[c][u] = min(dist[c][u], bits.OnesCount(uint(u^v)))
				}
			}
			if _, err := mon.learnAt(k, map[int][]Pattern{c: pats}); err != nil {
				t.Fatal(err)
			}
			if _, err := twin.learnAt(0, map[int][]Pattern{c: pats}); err != nil {
				t.Fatal(err)
			}
			for cc := range dist {
				z := mon.Zone(cc)
				z.ContainsBatch(universe, out)
				for v, p := range universe {
					want := dist[cc][v] <= gamma
					if got := z.Contains(p); got != want || out[v] != want {
						t.Fatalf("K=%d class %d width %d γ=%d pattern %s: Contains %v, ContainsBatch %v, want %v (%d pending)",
							k, cc, width, gamma, Pattern(p), got, out[v], want, z.pending())
					}
				}
			}
		}
		if !bytes.Equal(snapBytes(t, mon), snapBytes(t, twin)) {
			t.Fatalf("K=%d: the snapshot (%d pending) differs from the folded twin's", k, mon.Updater().Pending())
		}
	})
}
