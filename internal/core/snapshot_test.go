package core

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// snapPattern derives a deterministic width-bit pattern from a seed.
func snapPattern(width int, seed uint64) Pattern {
	p := make(Pattern, width)
	s := seed
	for i := range p {
		s = s*6364136223846793005 + 1442695040888963407
		p[i] = s>>63 == 1
	}
	return p
}

// snapMonitor builds a small deterministic monitor for snapshot tests.
func snapMonitor(t testing.TB, gamma int) *Monitor {
	t.Helper()
	const width = 8
	perClass := map[int][]Pattern{
		0: {snapPattern(width, 1), snapPattern(width, 2), snapPattern(width, 3)},
		2: {snapPattern(width, 4), snapPattern(width, 5)},
		5: {snapPattern(width, 6)},
	}
	m, err := BuildFromPatterns(width, gamma, perClass)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// snapTail is a delta log with both entry kinds — a pattern delta and a
// γ re-level — for the tail round trip and the fuzz seeds.
func snapTail() []DeltaEntry {
	return []DeltaEntry{
		{Epoch: 2, Gamma: -1, Delta: map[int][]Pattern{
			0: {snapPattern(8, 50)},
			2: {snapPattern(8, 51), snapPattern(8, 52)},
		}},
		{Epoch: 3, Gamma: 2},
	}
}

// snapBytes snapshots a monitor with an empty tail — the byte-level
// identity the replication path converges on.
func snapBytes(t testing.TB, m *Monitor) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Snapshot(&buf, nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotRoundTrip pins the core warm-start contract: a monitor
// loaded from a snapshot serves at the source's epoch id, answers every
// membership query identically and re-snapshots to the identical bytes.
func TestSnapshotRoundTrip(t *testing.T) {
	leader := snapMonitor(t, 1)
	if _, err := leader.Update(0, snapPattern(8, 40), snapPattern(8, 41)); err != nil {
		t.Fatal(err)
	}
	if _, err := leader.Update(2, snapPattern(8, 42)); err != nil {
		t.Fatal(err)
	}

	snap := snapBytes(t, leader)
	follower, tail, err := LoadSnapshot(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 0 {
		t.Fatalf("empty tail round-tripped to %d entries", len(tail))
	}
	if got, want := follower.Epoch(), leader.Epoch(); got != want {
		t.Fatalf("follower epoch %d, leader epoch %d", got, want)
	}
	if got, want := follower.Gamma(), leader.Gamma(); got != want {
		t.Fatalf("follower gamma %d, leader gamma %d", got, want)
	}

	for seed := uint64(100); seed < 200; seed++ {
		p := snapPattern(8, seed)
		for _, c := range []int{0, 1, 2, 5} {
			lo, lm := leader.WatchPattern(c, p)
			fo, fm := follower.WatchPattern(c, p)
			if lo != fo || lm != fm {
				t.Fatalf("class %d seed %d: leader (%v,%v) != follower (%v,%v)", c, seed, lo, lm, fo, fm)
			}
		}
	}

	if !bytes.Equal(snap, snapBytes(t, follower)) {
		t.Fatal("re-snapshot of loaded monitor differs from original snapshot")
	}
}

// TestSnapshotDeltaReplay is the replication convergence test: a
// follower warm-started from an epoch-1 snapshot replays the leader's
// epoch-keyed deltas and converges bit-for-bit — identical epoch ids at
// every step and identical snapshot bytes at the end, the
// assert-don't-eyeball discipline of exp.VerifyCompiledServing applied
// to replication.
func TestSnapshotDeltaReplay(t *testing.T) {
	leader := snapMonitor(t, 1)
	var snap bytes.Buffer
	if err := leader.Snapshot(&snap, nil); err != nil {
		t.Fatal(err)
	}

	var logEntries []DeltaEntry
	seed := uint64(300)
	for i := 0; i < 6; i++ {
		delta := map[int][]Pattern{
			0: {snapPattern(8, seed), snapPattern(8, seed+1)},
			2: {snapPattern(8, seed+2)},
		}
		seed += 3
		epoch, err := leader.UpdateBatch(delta)
		if err != nil {
			t.Fatal(err)
		}
		logEntries = append(logEntries, DeltaEntry{Epoch: epoch, Gamma: -1, Delta: delta})
	}
	// A γ re-level is an epoch publication too; replicate it the same way.
	epoch, err := leader.UpdateGamma(2)
	if err != nil {
		t.Fatal(err)
	}
	logEntries = append(logEntries, DeltaEntry{Epoch: epoch, Gamma: 2})

	follower, _, err := LoadSnapshot(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range logEntries {
		var got uint64
		if e.Gamma >= 0 {
			got, err = follower.UpdateGamma(e.Gamma)
		} else {
			got, err = follower.UpdateBatch(e.Delta)
		}
		if err != nil {
			t.Fatalf("replaying epoch %d: %v", e.Epoch, err)
		}
		if got != e.Epoch {
			t.Fatalf("replay published epoch %d, leader published %d", got, e.Epoch)
		}
	}
	if got, want := follower.Epoch(), leader.Epoch(); got != want {
		t.Fatalf("final epochs diverge: follower %d, leader %d", got, want)
	}
	if !bytes.Equal(snapBytes(t, leader), snapBytes(t, follower)) {
		t.Fatal("replayed follower snapshot differs from leader — replication is not bit-for-bit")
	}
}

// TestSnapshotDeltaTail round-trips an embedded delta log through the
// snapshot, including a γ entry.
func TestSnapshotDeltaTail(t *testing.T) {
	m := snapMonitor(t, 1)
	tail := snapTail()
	var snap bytes.Buffer
	if err := m.Snapshot(&snap, tail); err != nil {
		t.Fatal(err)
	}
	_, got, err := LoadSnapshot(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	assertEntriesEqual(t, got, tail)
}

// TestDeltaStreamRoundTrip pins the standalone replication-feed frame.
func TestDeltaStreamRoundTrip(t *testing.T) {
	entries := []DeltaEntry{
		{Epoch: 7, Gamma: -1, Delta: map[int][]Pattern{
			1: {snapPattern(8, 60), snapPattern(8, 61)},
		}},
		{Epoch: 8, Gamma: 0},
		{Epoch: 9, Gamma: -1, Delta: map[int][]Pattern{
			0: {snapPattern(8, 62)},
			3: {snapPattern(8, 63)},
		}},
	}
	enc, err := EncodeDeltaStream(8, entries)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDeltaStream(enc, 8)
	if err != nil {
		t.Fatal(err)
	}
	assertEntriesEqual(t, got, entries)
	if _, err := DecodeDeltaStream(enc, 9); err == nil {
		t.Fatal("width mismatch not detected")
	}
}

// TestDeltaStreamRejectsGammaBeyondWidth: a γ entry a follower would hand
// to cloneAtGamma → extendTo is bounded by the pattern width on both
// sides of the wire. The decode half crafts the frame behind a valid
// checksum, since the encoder refuses to write it.
func TestDeltaStreamRejectsGammaBeyondWidth(t *testing.T) {
	if _, err := EncodeDeltaStream(8, []DeltaEntry{{Epoch: 2, Gamma: 9}}); err == nil {
		t.Fatal("encoder wrote gamma 9 for width 8")
	}
	enc, err := EncodeDeltaStream(8, []DeltaEntry{{Epoch: 2, Gamma: 1}})
	if err != nil {
		t.Fatal(err)
	}
	// magic, width, count, epoch, kind, gamma — one byte each.
	const offGamma = 12
	if _, err := DecodeDeltaStream(splice(enc, offGamma, 8), 8); err != nil {
		t.Fatalf("gamma == width rejected: %v", err)
	}
	for _, g := range []uint64{9, 1 << 40, 1 << 63} {
		if got, err := DecodeDeltaStream(splice(enc, offGamma, g), 8); err == nil {
			t.Errorf("gamma %d accepted as %d", g, got[0].Gamma)
		}
	}
}

func assertEntriesEqual(t *testing.T, got, want []DeltaEntry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d entries, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Epoch != w.Epoch || g.Gamma != w.Gamma || len(g.Delta) != len(w.Delta) {
			t.Fatalf("entry %d: got {%d %d %d classes}, want {%d %d %d classes}",
				i, g.Epoch, g.Gamma, len(g.Delta), w.Epoch, w.Gamma, len(w.Delta))
		}
		for c, pats := range w.Delta {
			if len(g.Delta[c]) != len(pats) {
				t.Fatalf("entry %d class %d: %d patterns, want %d", i, c, len(g.Delta[c]), len(pats))
			}
			for j, p := range pats {
				if g.Delta[c][j].String() != p.String() {
					t.Fatalf("entry %d class %d pattern %d: %s != %s", i, c, j, g.Delta[c][j], p)
				}
			}
		}
	}
}

// TestSnapshotRejectsCorrupt exercises the checksum and validators.
func TestSnapshotRejectsCorrupt(t *testing.T) {
	m := snapMonitor(t, 1)
	var snap bytes.Buffer
	if err := m.Snapshot(&snap, nil); err != nil {
		t.Fatal(err)
	}
	good := snap.Bytes()

	if _, _, err := LoadSnapshot(bytes.NewReader(good[:len(good)-5])); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
	if _, _, err := LoadSnapshot(bytes.NewReader(good[:4])); err == nil {
		t.Fatal("magic-only snapshot accepted")
	}
	bad := append([]byte("XXXXXXXX"), good[8:]...)
	if _, _, err := LoadSnapshot(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}
	for _, off := range []int{8, len(good) / 2, len(good) - 5} {
		flip := append([]byte(nil), good...)
		flip[off] ^= 0x40
		if _, _, err := LoadSnapshot(bytes.NewReader(flip)); err == nil {
			t.Fatalf("bit flip at %d accepted", off)
		}
	}
}

// snapshotGolden pins the exact snapshot bytes of the deterministic test
// monitor, in the spirit of internal/wire's TestABI: any codec change
// shows up as a byte diff here and must be deliberate (bump the magic
// when the format changes — old followers must not misparse new
// snapshots).
const snapshotGolden = "4e4150534e415031010101080800010101010101010300030202130100020302010304000403010004000400040301040004000400030100040004040003010400000303000201000303000201010000010222010002030201030404050401050606070007070807010800080708000807080008000807070100080708000808090904080008050701080008070006070504050500050404010005040104000103020101000001020202020f01000203020100030300020100030003020103000300020103000300020103000300020100030300020101000001021c01000203020103040402030100040405050605010600060006050600060505010600060006050600060505010600060006050600060505010607000605010300010202010001010005010202080100020001010002010100020101020001010002010102000101000201010001020e0100020302010304000202010003020302010300030202010003020302010300030202010003020101010001020200010001f4030102e902023a"

// TestSnapshotABI is the golden-byte gate for the snapshot format.
func TestSnapshotABI(t *testing.T) {
	m := snapMonitor(t, 1)
	tail := []DeltaEntry{
		{Epoch: 2, Gamma: -1, Delta: map[int][]Pattern{0: {snapPattern(8, 50)}}},
		{Epoch: 3, Gamma: 2},
	}
	var snap bytes.Buffer
	if err := m.Snapshot(&snap, tail); err != nil {
		t.Fatal(err)
	}
	got := hex.EncodeToString(snap.Bytes())
	if got != snapshotGolden {
		t.Fatalf("snapshot ABI break:\n got %s\nwant %s", got, snapshotGolden)
	}
}
