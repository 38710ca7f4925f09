// Package wire is the versioned compact binary protocol of the serving
// stack: the frame layout, the cheap first-bytes packet filter, and the
// request/response codecs for the watch / learn / stats operations the
// HTTP plane of cmd/napmon-serve exposes as JSON. The gateway
// (gateway.go, the same daemon's -udp / -tcp plane) speaks it over UDP
// datagrams and persistent TCP streams; cmd/napmon-soak generates load
// in it.
//
// # Frame layout
//
// Every frame is a fixed 12-byte little-endian header followed by a
// payload of exactly the header's declared length:
//
//	offset size field
//	0      1    version (Version; a version bump breaks old peers loudly)
//	1      1    frame type (Type*)
//	2      4    frame id, uint32 LE — chosen by the requester, echoed
//	            verbatim in the response, so responses may arrive out of
//	            order over a pipelined connection
//	6      4    payload length, uint32 LE
//	10     2    header checksum, uint16 LE over bytes 0..9 (headerSum)
//
// The header doubles as the length prefix on streams and as the cheap
// packet filter on datagrams: BasicPacketFilter validates version, type,
// declared-vs-actual length and the checksum from the first 12 bytes
// alone, so garbage and cross-protocol traffic is dropped before any
// payload work — modeled on udpx's BasicPacketFilter.
//
// Activation patterns travel bit-packed (core.Pattern.AppendPacked /
// core.UnpackPattern — 8 neurons per byte, zero pad bits, the same codec
// behind Pattern.Key), never as 0/1 strings: a 70-neuron pattern is 9
// bytes on this protocol versus 72 on the JSON path. Input tensors
// travel as float32, halving the dominant payload versus float64 with
// no observable effect on verdicts (inputs are normalized pixels).
//
// The exact bytes of every frame type are pinned by TestABI
// (abi_test.go): any accidental wire break fails loudly against golden
// bytes, and FuzzWireRoundTrip holds decode(encode(x)) == x while
// decoding arbitrary bytes never panics or over-reads.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"napmon/internal/core"
	"napmon/internal/serve"
)

const (
	// Version is the protocol version carried in byte 0 of every frame.
	// v2 extended the stats response with monitor-level counters
	// (monitored/out-of-pattern verdicts, gamma, recompiled plans) and
	// the gateway's live TCP connection count. v3 added the tenant
	// dimension for fleet serving: watch, learn and stats requests
	// carry a uint32 tenant id routing the frame to one registry lane,
	// and the stats response reports the answering tenant and the fleet
	// size. Tenant 0 is the default tenant, preserving v2's semantics
	// for single-tenant deployments.
	Version = 3

	// DefaultTenant is the wire id of the default tenant — the only
	// tenant a single-tenant gateway serves, and what pre-fleet clients
	// implicitly addressed.
	DefaultTenant uint32 = 0

	// HeaderSize is the fixed frame header length in bytes.
	HeaderSize = 12

	// MaxPayload caps a declared payload length on streams (TCP): a
	// corrupt or hostile length field aborts the connection instead of
	// allocating gigabytes. Datagram frames are additionally bounded by
	// the UDP maximum (MaxUDPFrame).
	MaxPayload = 4 << 20

	// MaxUDPFrame is the largest whole frame (header + payload) that
	// fits one UDP datagram.
	MaxUDPFrame = 65507

	// MaxDims bounds the tensor rank a watch request may declare.
	MaxDims = 8

	// MaxTensorElems bounds the element count a watch request may
	// declare (1Mi float32 = 4 MiB, the stream payload cap).
	MaxTensorElems = 1 << 20

	// MaxPatterns bounds the patterns of one learn request.
	MaxPatterns = 4096

	// MaxErrMsg bounds the message of an error frame.
	MaxErrMsg = 1024
)

// Frame types. A request's response type is always request+1.
const (
	TypePing      uint8 = 1 // empty payload; liveness / readiness probe
	TypePong      uint8 = 2 // empty payload
	TypeWatchReq  uint8 = 3 // shape + float32 tensor
	TypeWatchResp uint8 = 4 // verdict with bit-packed pattern
	TypeLearnReq  uint8 = 5 // class + bit-packed patterns to absorb
	TypeLearnResp uint8 = 6 // published epoch + absorbed count
	TypeStatsReq  uint8 = 7 // empty payload
	TypeStatsResp uint8 = 8 // fixed counter block
	TypeErr       uint8 = 9 // code + message, response to any request
)

// typeValid reports whether t is a known frame type.
func typeValid(t uint8) bool { return t >= TypePing && t <= TypeErr }

// Error codes carried by TypeErr frames.
const (
	ErrCodeBadRequest    uint8 = 1 // malformed payload or rejected input
	ErrCodeShutdown      uint8 = 2 // server is draining; retry elsewhere
	ErrCodeOverloaded    uint8 = 3 // queue full; request was shed
	ErrCodeInternal      uint8 = 4
	ErrCodeUnknownTenant uint8 = 5 // tenant id not loaded on this peer (v3)
)

// Header is the decoded fixed frame header.
type Header struct {
	Version    uint8
	Type       uint8
	ID         uint32
	PayloadLen uint32
}

// headerSum is the 16-bit checksum over the first 10 header bytes: a
// multiply-xor mix, not a CRC — its job is to make stray traffic and
// bit rot fail the first-bytes filter cheaply, not to authenticate.
func headerSum(b []byte) uint16 {
	x := uint32(0x811C)
	for i := 0; i < 10; i++ {
		x = x*31 + uint32(b[i])
	}
	x ^= x >> 16
	return uint16(x)
}

// AppendHeader appends the 12-byte header for a payloadLen-byte payload
// of the given type and id.
func AppendHeader(dst []byte, typ uint8, id uint32, payloadLen int) []byte {
	off := len(dst)
	dst = append(dst, make([]byte, HeaderSize)...)
	h := dst[off:]
	h[0] = Version
	h[1] = typ
	binary.LittleEndian.PutUint32(h[2:6], id)
	binary.LittleEndian.PutUint32(h[6:10], uint32(payloadLen))
	binary.LittleEndian.PutUint16(h[10:12], headerSum(h[:10]))
	return dst
}

// finishFrame patches the payload length (everything appended after the
// header) and checksum of the frame whose header starts at hdrOff.
// Encoders that build payloads incrementally append a header with a
// zero length, append the payload, then call finishFrame.
func finishFrame(dst []byte, hdrOff int) []byte {
	h := dst[hdrOff:]
	binary.LittleEndian.PutUint32(h[6:10], uint32(len(dst)-hdrOff-HeaderSize))
	binary.LittleEndian.PutUint16(h[10:12], headerSum(h[:10]))
	return dst
}

// ErrMalformed tags frame-format violations (bad checksum, unknown
// version or type, oversized length) so a stream loop can tell a
// garbage-speaking peer from an ordinary transport error with
// errors.Is.
var ErrMalformed = errors.New("wire: malformed frame")

// ParseHeader decodes and validates the fixed header at the start of b:
// length, version, known type, payload bound and checksum. It does not
// look past HeaderSize bytes. Validation failures wrap ErrMalformed.
func ParseHeader(b []byte) (Header, error) {
	if len(b) < HeaderSize {
		return Header{}, fmt.Errorf("%w: header needs %d bytes, have %d", ErrMalformed, HeaderSize, len(b))
	}
	if got, want := binary.LittleEndian.Uint16(b[10:12]), headerSum(b[:10]); got != want {
		return Header{}, fmt.Errorf("%w: header checksum %#04x, want %#04x", ErrMalformed, got, want)
	}
	h := Header{
		Version:    b[0],
		Type:       b[1],
		ID:         binary.LittleEndian.Uint32(b[2:6]),
		PayloadLen: binary.LittleEndian.Uint32(b[6:10]),
	}
	if h.Version != Version {
		return Header{}, fmt.Errorf("%w: version %d, this peer speaks %d", ErrMalformed, h.Version, Version)
	}
	if !typeValid(h.Type) {
		return Header{}, fmt.Errorf("%w: unknown frame type %d", ErrMalformed, h.Type)
	}
	if h.PayloadLen > MaxPayload {
		return Header{}, fmt.Errorf("%w: payload length %d exceeds cap %d", ErrMalformed, h.PayloadLen, MaxPayload)
	}
	return h, nil
}

// BasicPacketFilter is the cheap first-bytes datagram filter: it
// accepts pkt only when a valid header is present and its declared
// payload length matches the datagram exactly. It allocates nothing and
// reads only the header, so the UDP read loop can discard garbage,
// truncated frames and cross-protocol traffic before any payload work.
func BasicPacketFilter(pkt []byte) bool {
	h, err := ParseHeader(pkt)
	if err != nil {
		return false
	}
	return int(h.PayloadLen) == len(pkt)-HeaderSize
}

// ReadFrame reads one whole frame from a stream: header, validation,
// then exactly PayloadLen payload bytes. buf is reused for the payload
// when large enough (pass nil to always allocate). The returned payload
// aliases buf (or a fresh allocation) and is valid until the next call
// with the same buf.
func ReadFrame(r io.Reader, buf []byte) (Header, []byte, error) {
	var hb [HeaderSize]byte
	if _, err := io.ReadFull(r, hb[:]); err != nil {
		return Header{}, nil, err
	}
	h, err := ParseHeader(hb[:])
	if err != nil {
		return Header{}, nil, err
	}
	n := int(h.PayloadLen)
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return Header{}, nil, fmt.Errorf("wire: short payload for %d-byte frame: %w", n, err)
	}
	return h, buf, nil
}

// --- ping / pong ---

// AppendPing appends an empty ping frame.
func AppendPing(dst []byte, id uint32) []byte { return AppendHeader(dst, TypePing, id, 0) }

// AppendPong appends an empty pong frame.
func AppendPong(dst []byte, id uint32) []byte { return AppendHeader(dst, TypePong, id, 0) }

// --- watch ---

// AppendWatchReq appends a watch request: uint32 tenant id, rank byte,
// uint16 dims, then the row-major input as float32. data must hold
// exactly prod(shape) values; the float64→float32 narrowing is the
// protocol's contract (inputs are normalized activations, float32
// halves the dominant payload).
func AppendWatchReq(dst []byte, id uint32, tenant uint32, shape []int, data []float64) ([]byte, error) {
	if len(shape) == 0 || len(shape) > MaxDims {
		return dst, fmt.Errorf("wire: tensor rank %d, want 1..%d", len(shape), MaxDims)
	}
	elems := 1
	for _, d := range shape {
		if d <= 0 || d > math.MaxUint16 {
			return dst, fmt.Errorf("wire: tensor dimension %d out of range [1,%d]", d, math.MaxUint16)
		}
		elems *= d
		if elems > MaxTensorElems {
			return dst, fmt.Errorf("wire: tensor exceeds %d elements", MaxTensorElems)
		}
	}
	if len(data) != elems {
		return dst, fmt.Errorf("wire: shape %v needs %d values, have %d", shape, elems, len(data))
	}
	hdrOff := len(dst)
	dst = AppendHeader(dst, TypeWatchReq, id, 0)
	dst = binary.LittleEndian.AppendUint32(dst, tenant)
	dst = append(dst, uint8(len(shape)))
	for _, d := range shape {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(d))
	}
	for _, v := range data {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(v)))
	}
	return finishFrame(dst, hdrOff), nil
}

// DecodeWatchReq decodes a watch request payload into its tenant id, a
// shape and the float64 input values the tensor substrate works in. It
// validates rank, dimension and element bounds before allocating, so a
// hostile length can not balloon memory past MaxTensorElems.
func DecodeWatchReq(payload []byte) (tenant uint32, shape []int, data []float64, err error) {
	if len(payload) < 5 {
		return 0, nil, nil, fmt.Errorf("wire: watch request needs 5 bytes, have %d", len(payload))
	}
	tenant = binary.LittleEndian.Uint32(payload[0:4])
	payload = payload[4:]
	rank := int(payload[0])
	if rank == 0 || rank > MaxDims {
		return 0, nil, nil, fmt.Errorf("wire: tensor rank %d, want 1..%d", rank, MaxDims)
	}
	if len(payload) < 1+2*rank {
		return 0, nil, nil, fmt.Errorf("wire: watch request truncated in shape")
	}
	shape = make([]int, rank)
	elems := 1
	for i := range shape {
		d := int(binary.LittleEndian.Uint16(payload[1+2*i:]))
		if d == 0 {
			return 0, nil, nil, fmt.Errorf("wire: zero tensor dimension")
		}
		shape[i] = d
		elems *= d
		if elems > MaxTensorElems {
			return 0, nil, nil, fmt.Errorf("wire: tensor exceeds %d elements", MaxTensorElems)
		}
	}
	rest := payload[1+2*rank:]
	if len(rest) != 4*elems {
		return 0, nil, nil, fmt.Errorf("wire: shape %v needs %d payload bytes, have %d", shape, 4*elems, len(rest))
	}
	data = make([]float64, elems)
	for i := range data {
		data[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(rest[4*i:])))
	}
	return tenant, shape, data, nil
}

// Watch response flag bits.
const (
	watchFlagMonitored    = 1 << 0
	watchFlagOutOfPattern = 1 << 1
)

// AppendWatchResp appends a watch response: flags byte, uint16 class,
// uint64 epoch, then the activation pattern bit-packed behind its
// uint16 bit count.
func AppendWatchResp(dst []byte, id uint32, v core.Verdict) ([]byte, error) {
	if v.Class < 0 || v.Class > math.MaxUint16 {
		return dst, fmt.Errorf("wire: class %d out of range [0,%d]", v.Class, math.MaxUint16)
	}
	if len(v.Pattern) > math.MaxUint16 {
		return dst, fmt.Errorf("wire: pattern of %d bits exceeds %d", len(v.Pattern), math.MaxUint16)
	}
	hdrOff := len(dst)
	dst = AppendHeader(dst, TypeWatchResp, id, 0)
	var flags uint8
	if v.Monitored {
		flags |= watchFlagMonitored
	}
	if v.OutOfPattern {
		flags |= watchFlagOutOfPattern
	}
	dst = append(dst, flags)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(v.Class))
	dst = binary.LittleEndian.AppendUint64(dst, v.Epoch)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(v.Pattern)))
	dst = v.Pattern.AppendPacked(dst)
	return finishFrame(dst, hdrOff), nil
}

// DecodeWatchResp decodes a watch response payload.
func DecodeWatchResp(payload []byte) (core.Verdict, error) {
	if len(payload) < 13 {
		return core.Verdict{}, fmt.Errorf("wire: watch response needs 13 bytes, have %d", len(payload))
	}
	flags := payload[0]
	if flags&^uint8(watchFlagMonitored|watchFlagOutOfPattern) != 0 {
		return core.Verdict{}, fmt.Errorf("wire: unknown watch flags %#02x", flags)
	}
	bits := int(binary.LittleEndian.Uint16(payload[11:13]))
	pat, err := core.UnpackPattern(payload[13:], bits)
	if err != nil {
		return core.Verdict{}, fmt.Errorf("wire: watch response pattern: %w", err)
	}
	return core.Verdict{
		Class:        int(binary.LittleEndian.Uint16(payload[1:3])),
		Monitored:    flags&watchFlagMonitored != 0,
		OutOfPattern: flags&watchFlagOutOfPattern != 0,
		Pattern:      pat,
		Epoch:        binary.LittleEndian.Uint64(payload[3:11]),
	}, nil
}

// --- learn ---

// AppendLearnReq appends a learn request: uint32 tenant id, uint16
// class, uint16 pattern width in bits, uint16 count, then count
// bit-packed patterns. All patterns must share one width (the monitor
// watches a fixed neuron set).
func AppendLearnReq(dst []byte, id uint32, tenant uint32, class int, pats []core.Pattern) ([]byte, error) {
	if class < 0 || class > math.MaxUint16 {
		return dst, fmt.Errorf("wire: class %d out of range [0,%d]", class, math.MaxUint16)
	}
	if len(pats) == 0 || len(pats) > MaxPatterns {
		return dst, fmt.Errorf("wire: %d patterns, want 1..%d", len(pats), MaxPatterns)
	}
	width := len(pats[0])
	if width == 0 || width > math.MaxUint16 {
		return dst, fmt.Errorf("wire: pattern width %d out of range [1,%d]", width, math.MaxUint16)
	}
	for i, p := range pats {
		if len(p) != width {
			return dst, fmt.Errorf("wire: pattern %d has %d bits, pattern 0 has %d", i, len(p), width)
		}
	}
	hdrOff := len(dst)
	dst = AppendHeader(dst, TypeLearnReq, id, 0)
	dst = binary.LittleEndian.AppendUint32(dst, tenant)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(class))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(width))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(pats)))
	for _, p := range pats {
		dst = p.AppendPacked(dst)
	}
	return finishFrame(dst, hdrOff), nil
}

// DecodeLearnReq decodes a learn request payload.
func DecodeLearnReq(payload []byte) (tenant uint32, class int, pats []core.Pattern, err error) {
	if len(payload) < 10 {
		return 0, 0, nil, fmt.Errorf("wire: learn request needs 10 bytes, have %d", len(payload))
	}
	tenant = binary.LittleEndian.Uint32(payload[0:4])
	class = int(binary.LittleEndian.Uint16(payload[4:6]))
	width := int(binary.LittleEndian.Uint16(payload[6:8]))
	count := int(binary.LittleEndian.Uint16(payload[8:10]))
	if width == 0 {
		return 0, 0, nil, fmt.Errorf("wire: zero pattern width")
	}
	if count == 0 || count > MaxPatterns {
		return 0, 0, nil, fmt.Errorf("wire: %d patterns, want 1..%d", count, MaxPatterns)
	}
	per := core.PackedLen(width)
	rest := payload[10:]
	if len(rest) != count*per {
		return 0, 0, nil, fmt.Errorf("wire: %d patterns of %d bits need %d payload bytes, have %d", count, width, count*per, len(rest))
	}
	pats = make([]core.Pattern, count)
	for i := range pats {
		if pats[i], err = core.UnpackPattern(rest[i*per:(i+1)*per], width); err != nil {
			return 0, 0, nil, fmt.Errorf("wire: learn pattern %d: %w", i, err)
		}
	}
	return tenant, class, pats, nil
}

// AppendLearnResp appends a learn response: uint64 published epoch,
// uint32 absorbed pattern count.
func AppendLearnResp(dst []byte, id uint32, epoch uint64, absorbed int) []byte {
	dst = AppendHeader(dst, TypeLearnResp, id, 12)
	dst = binary.LittleEndian.AppendUint64(dst, epoch)
	return binary.LittleEndian.AppendUint32(dst, uint32(absorbed))
}

// DecodeLearnResp decodes a learn response payload.
func DecodeLearnResp(payload []byte) (epoch uint64, absorbed int, err error) {
	if len(payload) != 12 {
		return 0, 0, fmt.Errorf("wire: learn response is 12 bytes, have %d", len(payload))
	}
	return binary.LittleEndian.Uint64(payload[0:8]),
		int(binary.LittleEndian.Uint32(payload[8:12])), nil
}

// --- stats ---

// Stats is the wire form of the serving counters: the serve.Stats
// snapshot plus the gateway's own frame counters.
type Stats struct {
	Queued    uint32
	Submitted uint64
	Served    uint64
	Rejected  uint64
	Shed      uint64
	Batches   uint64
	P50Ns     uint64
	P99Ns     uint64
	Lanes     uint32
	Epoch     uint64
	Updates   uint64
	// Monitor-level signals (v2): zone query plans recompiled by online
	// updates, verdicts issued for monitored classes, out-of-pattern
	// verdicts among them (the paper's safety signal), and the Hamming
	// enlargement level of the serving epoch.
	Recompiled uint64
	Monitored  uint64
	OOP        uint64
	Gamma      uint32
	// Gateway-level frame accounting (zero when reported by a
	// non-gateway peer): frames accepted past the packet filter, frames
	// the filter or a codec rejected, watch requests dropped by load
	// shedding or overload instead of being served, and live TCP
	// connections (v2).
	GwReceived  uint64
	GwMalformed uint64
	GwDropped   uint64
	GwConns     uint32
	// Fleet dimension (v3): the tenant these counters describe and the
	// number of tenants loaded on the answering peer.
	Tenant  uint32
	Tenants uint32
}

// statsPayloadLen is the fixed stats response payload size: six uint32
// fields and fifteen uint64 fields, little-endian, declaration order.
const statsPayloadLen = 144

// AppendStatsReq appends a stats request frame: a uint32 tenant id
// naming the lane whose counters are wanted.
func AppendStatsReq(dst []byte, id uint32, tenant uint32) []byte {
	dst = AppendHeader(dst, TypeStatsReq, id, 4)
	return binary.LittleEndian.AppendUint32(dst, tenant)
}

// DecodeStatsReq decodes a stats request payload. An empty payload —
// a v2-shaped request — selects the default tenant.
func DecodeStatsReq(payload []byte) (uint32, error) {
	switch len(payload) {
	case 0:
		return DefaultTenant, nil
	case 4:
		return binary.LittleEndian.Uint32(payload), nil
	default:
		return 0, fmt.Errorf("wire: stats request is 0 or 4 bytes, have %d", len(payload))
	}
}

// StatsFromServe converts a serve.Stats snapshot to its wire form.
func StatsFromServe(st serve.Stats) Stats {
	return Stats{
		Queued:     uint32(st.Queued),
		Submitted:  st.Submitted,
		Served:     st.Served,
		Rejected:   st.Rejected,
		Shed:       st.Shed,
		Batches:    st.Batches,
		P50Ns:      uint64(st.P50.Nanoseconds()),
		P99Ns:      uint64(st.P99.Nanoseconds()),
		Lanes:      uint32(st.Lanes),
		Epoch:      st.Epoch,
		Updates:    st.Updates,
		Recompiled: st.Recompiled,
		Monitored:  st.Monitored,
		OOP:        st.OutOfPattern,
		Gamma:      uint32(st.Gamma),
	}
}

// AppendStatsResp appends a stats response: the fixed 136-byte counter
// block, every field little-endian in declaration order.
func AppendStatsResp(dst []byte, id uint32, st Stats) []byte {
	dst = AppendHeader(dst, TypeStatsResp, id, statsPayloadLen)
	dst = binary.LittleEndian.AppendUint32(dst, st.Queued)
	dst = binary.LittleEndian.AppendUint64(dst, st.Submitted)
	dst = binary.LittleEndian.AppendUint64(dst, st.Served)
	dst = binary.LittleEndian.AppendUint64(dst, st.Rejected)
	dst = binary.LittleEndian.AppendUint64(dst, st.Shed)
	dst = binary.LittleEndian.AppendUint64(dst, st.Batches)
	dst = binary.LittleEndian.AppendUint64(dst, st.P50Ns)
	dst = binary.LittleEndian.AppendUint64(dst, st.P99Ns)
	dst = binary.LittleEndian.AppendUint32(dst, st.Lanes)
	dst = binary.LittleEndian.AppendUint64(dst, st.Epoch)
	dst = binary.LittleEndian.AppendUint64(dst, st.Updates)
	dst = binary.LittleEndian.AppendUint64(dst, st.Recompiled)
	dst = binary.LittleEndian.AppendUint64(dst, st.Monitored)
	dst = binary.LittleEndian.AppendUint64(dst, st.OOP)
	dst = binary.LittleEndian.AppendUint32(dst, st.Gamma)
	dst = binary.LittleEndian.AppendUint64(dst, st.GwReceived)
	dst = binary.LittleEndian.AppendUint64(dst, st.GwMalformed)
	dst = binary.LittleEndian.AppendUint64(dst, st.GwDropped)
	dst = binary.LittleEndian.AppendUint32(dst, st.GwConns)
	dst = binary.LittleEndian.AppendUint32(dst, st.Tenant)
	dst = binary.LittleEndian.AppendUint32(dst, st.Tenants)
	return dst
}

// DecodeStatsResp decodes a stats response payload.
func DecodeStatsResp(payload []byte) (Stats, error) {
	if len(payload) != statsPayloadLen {
		return Stats{}, fmt.Errorf("wire: stats response is %d bytes, have %d", statsPayloadLen, len(payload))
	}
	return Stats{
		Queued:      binary.LittleEndian.Uint32(payload[0:4]),
		Submitted:   binary.LittleEndian.Uint64(payload[4:12]),
		Served:      binary.LittleEndian.Uint64(payload[12:20]),
		Rejected:    binary.LittleEndian.Uint64(payload[20:28]),
		Shed:        binary.LittleEndian.Uint64(payload[28:36]),
		Batches:     binary.LittleEndian.Uint64(payload[36:44]),
		P50Ns:       binary.LittleEndian.Uint64(payload[44:52]),
		P99Ns:       binary.LittleEndian.Uint64(payload[52:60]),
		Lanes:       binary.LittleEndian.Uint32(payload[60:64]),
		Epoch:       binary.LittleEndian.Uint64(payload[64:72]),
		Updates:     binary.LittleEndian.Uint64(payload[72:80]),
		Recompiled:  binary.LittleEndian.Uint64(payload[80:88]),
		Monitored:   binary.LittleEndian.Uint64(payload[88:96]),
		OOP:         binary.LittleEndian.Uint64(payload[96:104]),
		Gamma:       binary.LittleEndian.Uint32(payload[104:108]),
		GwReceived:  binary.LittleEndian.Uint64(payload[108:116]),
		GwMalformed: binary.LittleEndian.Uint64(payload[116:124]),
		GwDropped:   binary.LittleEndian.Uint64(payload[124:132]),
		GwConns:     binary.LittleEndian.Uint32(payload[132:136]),
		Tenant:      binary.LittleEndian.Uint32(payload[136:140]),
		Tenants:     binary.LittleEndian.Uint32(payload[140:144]),
	}, nil
}

// --- error ---

// AppendErr appends an error frame: code byte, uint16 message length,
// message bytes. Messages beyond MaxErrMsg are truncated — an error
// response must always fit a datagram.
func AppendErr(dst []byte, id uint32, code uint8, msg string) []byte {
	if len(msg) > MaxErrMsg {
		msg = msg[:MaxErrMsg]
	}
	dst = AppendHeader(dst, TypeErr, id, 3+len(msg))
	dst = append(dst, code)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(msg)))
	return append(dst, msg...)
}

// DecodeErr decodes an error frame payload.
func DecodeErr(payload []byte) (code uint8, msg string, err error) {
	if len(payload) < 3 {
		return 0, "", fmt.Errorf("wire: error frame needs 3 bytes, have %d", len(payload))
	}
	n := int(binary.LittleEndian.Uint16(payload[1:3]))
	if len(payload) != 3+n {
		return 0, "", fmt.Errorf("wire: error frame declares %d message bytes, carries %d", n, len(payload)-3)
	}
	return payload[0], string(payload[3:]), nil
}
