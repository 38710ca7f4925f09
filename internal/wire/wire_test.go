package wire

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"napmon/internal/core"
)

func mustWatchReq(t *testing.T, id uint32, shape []int, data []float64) []byte {
	t.Helper()
	frame, err := AppendWatchReq(nil, id, DefaultTenant, shape, data)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

func TestHeaderRoundTrip(t *testing.T) {
	frame := AppendHeader(nil, TypePing, 0xDEADBEEF, 0)
	if len(frame) != HeaderSize {
		t.Fatalf("header frame is %d bytes, want %d", len(frame), HeaderSize)
	}
	h, err := ParseHeader(frame)
	if err != nil {
		t.Fatal(err)
	}
	if h.Version != Version || h.Type != TypePing || h.ID != 0xDEADBEEF || h.PayloadLen != 0 {
		t.Fatalf("header round trip: %+v", h)
	}
}

func TestParseHeaderRejects(t *testing.T) {
	good := AppendHeader(nil, TypePing, 7, 0)
	cases := map[string]func([]byte) []byte{
		"short":        func(b []byte) []byte { return b[:HeaderSize-1] },
		"bad version":  func(b []byte) []byte { b[0] = Version + 1; return b },
		"zero version": func(b []byte) []byte { b[0] = 0; return b },
		"bad type":     func(b []byte) []byte { b[1] = TypeErr + 1; return b },
		"zero type":    func(b []byte) []byte { b[1] = 0; return b },
		"bad sum":      func(b []byte) []byte { b[10] ^= 0xFF; return b },
		"flipped id":   func(b []byte) []byte { b[3] ^= 0x01; return b },
	}
	for name, mutate := range cases {
		b := mutate(append([]byte(nil), good...))
		if _, err := ParseHeader(b); err == nil {
			t.Errorf("%s: accepted", name)
		} else if !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: error %v does not wrap ErrMalformed", name, err)
		}
	}
	// Mutating version, type or id invalidates the checksum; a forged
	// frame must also recompute it, and then the explicit field checks
	// still reject.
	forged := AppendHeader(nil, TypePing, 7, 0)
	forged[0] = Version + 1
	forged[10] = byte(headerSum(forged[:10]))
	forged[11] = byte(headerSum(forged[:10]) >> 8)
	if _, err := ParseHeader(forged); err == nil {
		t.Error("forged version with valid checksum accepted")
	}
	over := AppendHeader(nil, TypeWatchReq, 7, MaxPayload+1)
	if _, err := ParseHeader(over); err == nil {
		t.Error("over-cap payload length accepted")
	}
}

func TestReadFrame(t *testing.T) {
	frame := mustWatchReq(t, 9, []int{3}, []float64{0.5, -0.25, 8})
	h, payload, err := ReadFrame(bytes.NewReader(frame), nil)
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != TypeWatchReq || h.ID != 9 {
		t.Fatalf("header %+v", h)
	}
	if !bytes.Equal(payload, frame[HeaderSize:]) {
		t.Fatal("payload mismatch")
	}
	// Two frames back to back parse cleanly off one stream.
	double := append(append([]byte(nil), frame...), AppendPing(nil, 1)...)
	r := bytes.NewReader(double)
	if _, _, err := ReadFrame(r, nil); err != nil {
		t.Fatal(err)
	}
	if h2, _, err := ReadFrame(r, nil); err != nil || h2.Type != TypePing {
		t.Fatalf("second frame: %+v, %v", h2, err)
	}
	// Truncated payload is an error, not a hang or a short read.
	if _, _, err := ReadFrame(bytes.NewReader(frame[:len(frame)-2]), nil); err == nil {
		t.Fatal("truncated payload accepted")
	}
	if _, _, err := ReadFrame(bytes.NewReader(nil), nil); !errors.Is(err, io.EOF) {
		t.Fatalf("empty stream: %v, want EOF", err)
	}
}

func TestWatchReqRoundTrip(t *testing.T) {
	shape := []int{1, 28, 28}
	data := make([]float64, 784)
	for i := range data {
		data[i] = float64(i%256) / 256 // power-of-two denominator: exact in float32
	}
	frame, err := AppendWatchReq(nil, 42, 0xCAFE, shape, data)
	if err != nil {
		t.Fatal(err)
	}
	h, err := ParseHeader(frame)
	if err != nil {
		t.Fatal(err)
	}
	if int(h.PayloadLen) != len(frame)-HeaderSize {
		t.Fatal("header length does not cover the payload")
	}
	tenant, gotShape, gotData, err := DecodeWatchReq(frame[HeaderSize:])
	if err != nil {
		t.Fatal(err)
	}
	if tenant != 0xCAFE {
		t.Fatalf("tenant %#x, want 0xCAFE", tenant)
	}
	if len(gotShape) != 3 || gotShape[0] != 1 || gotShape[1] != 28 || gotShape[2] != 28 {
		t.Fatalf("shape %v", gotShape)
	}
	for i := range data {
		if gotData[i] != data[i] { // values chosen exactly representable in f32
			t.Fatalf("value %d: %v != %v", i, gotData[i], data[i])
		}
	}
}

func TestWatchReqRejects(t *testing.T) {
	if _, err := AppendWatchReq(nil, 1, 0, nil, nil); err == nil {
		t.Fatal("empty shape accepted")
	}
	if _, err := AppendWatchReq(nil, 1, 0, []int{1, 2}, []float64{1}); err == nil {
		t.Fatal("shape/data mismatch accepted")
	}
	if _, err := AppendWatchReq(nil, 1, 0, []int{0}, nil); err == nil {
		t.Fatal("zero dim accepted")
	}
	if _, err := AppendWatchReq(nil, 1, 0, []int{1 << 11, 1 << 11}, nil); err == nil {
		t.Fatal("oversized tensor accepted")
	}
	if _, _, _, err := DecodeWatchReq(nil); err == nil {
		t.Fatal("empty payload accepted")
	}
	if _, _, _, err := DecodeWatchReq([]byte{0, 0, 0, 0}); err == nil {
		t.Fatal("tenant-only payload accepted")
	}
	if _, _, _, err := DecodeWatchReq([]byte{0, 0, 0, 0, 1}); err == nil {
		t.Fatal("truncated shape accepted")
	}
	if _, _, _, err := DecodeWatchReq([]byte{0, 0, 0, 0, 1, 2, 0, 0, 0, 0, 0}); err == nil {
		t.Fatal("short float payload accepted")
	}
	if _, _, _, err := DecodeWatchReq([]byte{0, 0, 0, 0, 1, 0, 0}); err == nil {
		t.Fatal("zero dimension accepted")
	}
}

func TestWatchRespRoundTrip(t *testing.T) {
	pat, err := core.ParsePattern("0110100111010001")
	if err != nil {
		t.Fatal(err)
	}
	want := core.Verdict{Class: 14, Monitored: true, OutOfPattern: true, Pattern: pat, Epoch: 31}
	frame, err := AppendWatchResp(nil, 5, want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeWatchResp(frame[HeaderSize:])
	if err != nil {
		t.Fatal(err)
	}
	if got.Class != want.Class || got.Monitored != want.Monitored ||
		got.OutOfPattern != want.OutOfPattern || got.Epoch != want.Epoch ||
		core.Hamming(got.Pattern, want.Pattern) != 0 {
		t.Fatalf("round trip: %+v != %+v", got, want)
	}
	// The packed pattern on the wire is the shared core codec's bytes.
	if !bytes.Equal(frame[HeaderSize+13:], pat.AppendPacked(nil)) {
		t.Fatal("wire pattern bytes differ from core.AppendPacked")
	}
	if _, err := DecodeWatchResp(nil); err == nil {
		t.Fatal("empty payload accepted")
	}
	if _, err := DecodeWatchResp(frame[HeaderSize : len(frame)-1]); err == nil {
		t.Fatal("truncated pattern accepted")
	}
	bad := append([]byte(nil), frame[HeaderSize:]...)
	bad[0] |= 0x80
	if _, err := DecodeWatchResp(bad); err == nil {
		t.Fatal("unknown flag bits accepted")
	}
}

func TestLearnRoundTrip(t *testing.T) {
	pats := []core.Pattern{
		{true, false, true, true, false},
		{false, false, false, false, true},
		{true, true, true, true, true},
	}
	frame, err := AppendLearnReq(nil, 77, 9, 3, pats)
	if err != nil {
		t.Fatal(err)
	}
	tenant, class, got, err := DecodeLearnReq(frame[HeaderSize:])
	if err != nil {
		t.Fatal(err)
	}
	if tenant != 9 || class != 3 || len(got) != 3 {
		t.Fatalf("tenant %d, class %d, %d patterns", tenant, class, len(got))
	}
	for i := range pats {
		if core.Hamming(got[i], pats[i]) != 0 {
			t.Fatalf("pattern %d changed", i)
		}
	}

	resp := AppendLearnResp(nil, 77, 12345, 3)
	epoch, absorbed, err := DecodeLearnResp(resp[HeaderSize:])
	if err != nil || epoch != 12345 || absorbed != 3 {
		t.Fatalf("learn response: %d, %d, %v", epoch, absorbed, err)
	}

	if _, err := AppendLearnReq(nil, 1, 0, 1, nil); err == nil {
		t.Fatal("empty learn accepted")
	}
	if _, err := AppendLearnReq(nil, 1, 0, 1, []core.Pattern{{true}, {true, false}}); err == nil {
		t.Fatal("ragged widths accepted")
	}
	if _, err := AppendLearnReq(nil, 1, 0, -1, pats); err == nil {
		t.Fatal("negative class accepted")
	}
	if _, _, _, err := DecodeLearnReq(nil); err == nil {
		t.Fatal("empty payload accepted")
	}
	if _, _, _, err := DecodeLearnReq(frame[HeaderSize : len(frame)-1]); err == nil {
		t.Fatal("truncated patterns accepted")
	}
}

func TestStatsRoundTrip(t *testing.T) {
	want := Stats{
		Queued: 3, Submitted: 100, Served: 98, Rejected: 1, Shed: 1,
		Batches: 20, P50Ns: 700_000, P99Ns: 2_000_000, Lanes: 2,
		Epoch: 4, Updates: 3, GwReceived: 105, GwMalformed: 2, GwDropped: 1,
		Tenant: 7, Tenants: 3,
	}
	frame := AppendStatsResp(nil, 8, want)
	if len(frame) != HeaderSize+statsPayloadLen {
		t.Fatalf("stats frame is %d bytes, want %d", len(frame), HeaderSize+statsPayloadLen)
	}
	got, err := DecodeStatsResp(frame[HeaderSize:])
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("round trip: %+v != %+v", got, want)
	}
	if _, err := DecodeStatsResp(frame[HeaderSize : len(frame)-1]); err == nil {
		t.Fatal("truncated stats accepted")
	}

	// The stats request addresses a tenant; an empty (v2-shaped) payload
	// selects the default tenant.
	req := AppendStatsReq(nil, 8, 5)
	tenant, err := DecodeStatsReq(req[HeaderSize:])
	if err != nil || tenant != 5 {
		t.Fatalf("stats request tenant %d, %v", tenant, err)
	}
	if tenant, err := DecodeStatsReq(nil); err != nil || tenant != DefaultTenant {
		t.Fatalf("empty stats request: tenant %d, %v", tenant, err)
	}
	if _, err := DecodeStatsReq([]byte{1, 2}); err == nil {
		t.Fatal("odd-length stats request accepted")
	}
}

func TestErrRoundTrip(t *testing.T) {
	frame := AppendErr(nil, 6, ErrCodeOverloaded, "queue full")
	code, msg, err := DecodeErr(frame[HeaderSize:])
	if err != nil || code != ErrCodeOverloaded || msg != "queue full" {
		t.Fatalf("err round trip: %d %q %v", code, msg, err)
	}
	// Oversized messages truncate to MaxErrMsg and still frame cleanly.
	long := AppendErr(nil, 6, ErrCodeInternal, strings.Repeat("x", 2*MaxErrMsg))
	if !wholeFrame(long) {
		t.Fatal("truncated error frame's header does not declare its length")
	}
	if _, msg, err := DecodeErr(long[HeaderSize:]); err != nil || len(msg) != MaxErrMsg {
		t.Fatalf("long message: %d bytes, %v", len(msg), err)
	}
	if _, _, err := DecodeErr(nil); err == nil {
		t.Fatal("empty payload accepted")
	}
	if _, _, err := DecodeErr([]byte{1, 5, 0, 'a'}); err == nil {
		t.Fatal("length-lying payload accepted")
	}
}
