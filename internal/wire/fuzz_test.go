package wire

import (
	"bytes"
	"encoding/binary"
	"testing"

	"napmon/internal/core"
)

// FuzzWireRoundTrip fuzzes the binary protocol from both directions.
//
// Forward: fuzzed fields are encoded into each frame type, decoded
// back, and re-encoded — decode(encode(x)) must equal x and the
// re-encoding must be byte-identical (the encoding is canonical, which
// is what lets TestABI pin single golden byte strings).
//
// Backward: the raw fuzz input itself is fed to ParseHeader, ReadFrame
// and every payload decoder. None may panic, over-read, or allocate
// past the declared caps, no matter the bytes — this is the property
// that makes the gateway safe to point at the open internet.
//
// Both directions hold every frame to wholeFrame: a valid header that
// declares exactly the payload bytes behind it.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add(uint32(0), []byte{})
	f.Add(uint32(7), []byte{0x01, 0x03, 0x07, 0x00})
	f.Add(uint32(1<<31), []byte{0xFF, 0xFF, 0x00, 0x10, 0x20, 0x30, 0x40, 0x50, 0x60})
	ping := AppendPing(nil, 3)
	f.Add(uint32(3), ping)
	wr, _ := AppendWatchReq(nil, 5, 1, []int{2, 3}, []float64{1, 2, 3, 4, 5, 6})
	f.Add(uint32(5), wr)
	f.Fuzz(func(t *testing.T, id uint32, data []byte) {
		// --- Backward: arbitrary bytes never panic a decoder. ---
		ParseHeader(data)
		if h, _, err := ReadFrame(bytes.NewReader(data), nil); err == nil {
			// A frame that parses off a stream is whole on its own: its
			// header declares exactly the bytes that follow it.
			if whole := data[:HeaderSize+int(h.PayloadLen)]; !wholeFrame(whole) {
				t.Fatalf("stream-parsed frame is not whole: %#02x", whole)
			}
		}
		DecodeWatchReq(data)
		DecodeWatchResp(data)
		DecodeLearnReq(data)
		DecodeLearnResp(data)
		DecodeStatsReq(data)
		DecodeStatsResp(data)
		DecodeErr(data)

		// --- Forward: structured round trips driven by the fuzz bytes. ---
		next := func(n int) []byte { // consume up to n bytes of fuzz input
			if n > len(data) {
				n = len(data)
			}
			out := data[:n]
			data = data[n:]
			return out
		}

		// Watch request: tenant, rank and dims from the input, kept tiny.
		tenant := id ^ 0xA5A5_0000
		dimBytes := next(3)
		if len(dimBytes) > 0 {
			shape := make([]int, 0, len(dimBytes))
			vals := 1
			for _, b := range dimBytes {
				d := int(b%7) + 1
				shape = append(shape, d)
				vals *= d
			}
			in := make([]float64, vals)
			for i, b := range next(vals) {
				in[i] = float64(int8(b)) / 16 // exact in float32
			}
			frame, err := AppendWatchReq(nil, id, tenant, shape, in)
			if err != nil {
				t.Fatalf("AppendWatchReq(%v): %v", shape, err)
			}
			if !wholeFrame(frame) {
				t.Fatal("encoded watch request's header does not declare its length")
			}
			h, err := ParseHeader(frame)
			if err != nil || h.ID != id || h.Type != TypeWatchReq {
				t.Fatalf("watch request header %+v, %v", h, err)
			}
			gotTenant, gotShape, gotData, err := DecodeWatchReq(frame[HeaderSize:])
			if err != nil {
				t.Fatalf("DecodeWatchReq: %v", err)
			}
			if gotTenant != tenant {
				t.Fatalf("tenant changed: %d -> %d", tenant, gotTenant)
			}
			for i := range shape {
				if gotShape[i] != shape[i] {
					t.Fatalf("shape changed: %v -> %v", shape, gotShape)
				}
			}
			for i := range in {
				if gotData[i] != in[i] {
					t.Fatalf("value %d changed: %v -> %v", i, in[i], gotData[i])
				}
			}
			re, err := AppendWatchReq(nil, id, gotTenant, gotShape, gotData)
			if err != nil || !bytes.Equal(re, frame) {
				t.Fatal("watch request re-encoding differs")
			}
		}

		// Watch response with a pattern built from fuzz bits.
		pb := next(4)
		pat := make(core.Pattern, len(pb)*8)
		for i := range pat {
			pat[i] = pb[i/8]&(1<<(i%8)) != 0
		}
		v := core.Verdict{
			Class:        int(id % 43),
			Monitored:    id%2 == 0,
			OutOfPattern: id%3 == 0,
			Pattern:      pat,
			Epoch:        uint64(id) * 0x9E3779B97F4A7C15,
		}
		frame, err := AppendWatchResp(nil, id, v)
		if err != nil || !wholeFrame(frame) {
			t.Fatalf("AppendWatchResp: %v, whole %v", err, wholeFrame(frame))
		}
		got, err := DecodeWatchResp(frame[HeaderSize:])
		if err != nil {
			t.Fatalf("DecodeWatchResp: %v", err)
		}
		if got.Class != v.Class || got.Monitored != v.Monitored ||
			got.OutOfPattern != v.OutOfPattern || got.Epoch != v.Epoch ||
			len(got.Pattern) != len(v.Pattern) {
			t.Fatalf("verdict changed: %+v -> %+v", v, got)
		}
		if len(pat) > 0 && core.Hamming(got.Pattern, v.Pattern) != 0 {
			t.Fatal("pattern changed across the wire")
		}
		re, err := AppendWatchResp(nil, id, got)
		if err != nil || !bytes.Equal(re, frame) {
			t.Fatal("watch response re-encoding differs")
		}

		// Learn round trip when enough bits remain.
		if len(pat) > 0 {
			class := int(id % 64)
			lrFrame, err := AppendLearnReq(nil, id, tenant, class, []core.Pattern{pat, pat})
			if err != nil || !wholeFrame(lrFrame) {
				t.Fatalf("AppendLearnReq: %v, whole %v", err, wholeFrame(lrFrame))
			}
			gotTenant, gotClass, gotPats, err := DecodeLearnReq(lrFrame[HeaderSize:])
			if err != nil || gotTenant != tenant || gotClass != class || len(gotPats) != 2 ||
				core.Hamming(gotPats[0], pat) != 0 || core.Hamming(gotPats[1], pat) != 0 {
				t.Fatalf("learn round trip: tenant %d, class %d, %d pats, %v", gotTenant, gotClass, len(gotPats), err)
			}
			reLr, err := AppendLearnReq(nil, id, gotTenant, gotClass, gotPats)
			if err != nil || !bytes.Equal(reLr, lrFrame) {
				t.Fatal("learn re-encoding differs")
			}
		}

		// Stats: fill every field from the id and round-trip.
		st := Stats{
			Queued: id, Submitted: uint64(id) + 1, Served: uint64(id) + 2,
			Rejected: uint64(id) + 3, Shed: uint64(id) + 4, Batches: uint64(id) + 5,
			P50Ns: uint64(id) + 6, P99Ns: uint64(id) + 7, Lanes: id + 8,
			Epoch: uint64(id) + 9, Updates: uint64(id) + 10,
			GwReceived: uint64(id) + 11, GwMalformed: uint64(id) + 12, GwDropped: uint64(id) + 13,
			Tenant: tenant, Tenants: id + 14,
		}
		stFrame := AppendStatsResp(nil, id, st)
		sReq := AppendStatsReq(nil, id, tenant)
		if !wholeFrame(stFrame) || !wholeFrame(sReq) {
			t.Fatal("a stats frame's header does not declare its length")
		}
		gotSt, err := DecodeStatsResp(stFrame[HeaderSize:])
		if err != nil || gotSt != st {
			t.Fatalf("stats round trip: %+v, %v", gotSt, err)
		}
		if gotTenant, err := DecodeStatsReq(sReq[HeaderSize:]); err != nil || gotTenant != tenant {
			t.Fatalf("stats request round trip: tenant %d, %v", gotTenant, err)
		}

		// Err frames round-trip any message bytes.
		msg := string(next(64))
		eFrame := AppendErr(nil, id, uint8(id%5)+1, msg)
		if !wholeFrame(eFrame) {
			t.Fatal("error frame's header does not declare its length")
		}
		code, gotMsg, err := DecodeErr(eFrame[HeaderSize:])
		if err != nil || code != uint8(id%5)+1 || gotMsg != msg {
			t.Fatalf("err round trip: %d %q %v", code, gotMsg, err)
		}

		// Header id/length fields survive independent of checksum math.
		hb := AppendHeader(nil, TypePong, id, 77)
		if binary.LittleEndian.Uint32(hb[2:6]) != id {
			t.Fatal("id bytes moved")
		}
	})
}

// wholeFrame reports whether b is exactly one frame: a header that
// ParseHeader accepts, followed by precisely the payload bytes it
// declares.
func wholeFrame(b []byte) bool {
	h, err := ParseHeader(b)
	return err == nil && int(h.PayloadLen) == len(b)-HeaderSize
}
