package wire

import (
	"bytes"
	"net"
	"strings"
	"testing"
	"time"

	"napmon/internal/core"
	"napmon/internal/obs"
	"napmon/internal/serve"
	"napmon/internal/tensor"
)

// TestGatherFrames pins the connection writer's gather step as a pure
// function over a preloaded queue: everything already queued leaves in
// one buffer, in order and counted per frame; the gather stops before
// its cap and hands the frame that did not fit back; a closed queue ends
// it like an empty one.
func TestGatherFrames(t *testing.T) {
	g := NewFleetGateway(nil, nil, GatewayConfig{})
	pong := func(id uint32) []byte { return AppendPong(g.getBuf(), id) }
	queue := func(ids ...uint32) chan []byte {
		out := make(chan []byte, len(ids)+1)
		for _, id := range ids {
			out <- pong(id)
		}
		return out
	}
	wantIDs := func(buf []byte, ids ...uint32) {
		t.Helper()
		r := bytes.NewReader(buf)
		for _, id := range ids {
			h, _, err := ReadFrame(r, nil)
			if err != nil || h.Type != TypePong || h.ID != id {
				t.Fatalf("gathered frame: %+v, %v, want pong %d", h, err, id)
			}
		}
		if r.Len() != 0 {
			t.Fatalf("%d stray bytes after %d gathered frames", r.Len(), len(ids))
		}
	}

	// k queued frames → one buffer, in order, count k; the queue is left
	// empty and nothing is carried.
	out := queue(2, 3, 4, 5)
	buf, frames, carry := g.gatherFrames(nil, pong(1), out, 1<<20)
	if frames != 5 || carry != nil || len(out) != 0 {
		t.Fatalf("gathered %d frames, carry %v, %d left queued; want 5, nil, 0", frames, carry, len(out))
	}
	wantIDs(buf, 1, 2, 3, 4, 5)

	// A lone frame is a gather of one, appended after what dst holds.
	buf, frames, carry = g.gatherFrames([]byte("x"), pong(9), queue(), 1<<20)
	if frames != 1 || carry != nil || buf[0] != 'x' {
		t.Fatalf("lone gather: %d frames, carry %v, buf %q", frames, carry, buf)
	}
	wantIDs(buf[1:], 9)

	// The cap holds three pongs: the fourth comes back as carry, the
	// fifth stays queued, and the next gather opens with the carry.
	out = queue(2, 3, 4, 5)
	buf, frames, carry = g.gatherFrames(nil, pong(1), out, 3*HeaderSize)
	if frames != 3 || len(buf) != 3*HeaderSize || carry == nil || len(out) != 1 {
		t.Fatalf("capped gather: %d frames, %d bytes, carry %v, %d left queued", frames, len(buf), carry, len(out))
	}
	wantIDs(buf, 1, 2, 3)
	buf, frames, carry = g.gatherFrames(buf[:0], carry, out, 3*HeaderSize)
	if frames != 2 || carry != nil {
		t.Fatalf("gather after carry: %d frames, carry %v", frames, carry)
	}
	wantIDs(buf, 4, 5)

	// The first frame is always taken, even alone over the cap.
	buf, frames, carry = g.gatherFrames(nil, pong(7), queue(8), HeaderSize-1)
	if frames != 1 || carry == nil {
		t.Fatalf("oversized first frame: %d frames, carry %v", frames, carry)
	}
	wantIDs(buf, 7)

	// A closed queue: what it still holds is gathered, then the gather
	// ends without blocking or carrying.
	out = queue(2)
	close(out)
	buf, frames, carry = g.gatherFrames(nil, pong(1), out, 1<<20)
	if frames != 2 || carry != nil {
		t.Fatalf("closed queue: %d frames, carry %v", frames, carry)
	}
	wantIDs(buf, 1, 2)
}

// TestGatewayTCPBurst writes 256 pipelined watch frames in one client
// write — the shape the buffered reader and the gathering writer exist
// for — and checks the burst is answered completely: every id exactly
// once, each with its verdict, and Responded counting frames, not
// socket writes. The verdicts of a micro-batch are queued together by
// the lane that served it, so the 32 batches of 8 must leave in at most
// n/4 writes; a writer woken once per verdict makes about n.
func TestGatewayTCPBurst(t *testing.T) {
	g, network, mon, inputs := toyGatewayParts(t, 29, serve.Config{MaxBatch: 8}, GatewayConfig{})
	const n = 256
	var burst []byte
	want := make([]core.Verdict, len(inputs))
	for id := uint32(0); id < n; id++ {
		x := inputs[int(id)%len(inputs)]
		off := len(burst)
		var err error
		if burst, err = AppendWatchReq(burst, id, DefaultTenant, x.Shape(), x.Data()); err != nil {
			t.Fatal(err)
		}
		if int(id) < len(inputs) {
			// The reference sees what the server sees: the float32-narrowed input.
			_, shape, data, err := DecodeWatchReq(burst[off+HeaderSize:])
			if err != nil {
				t.Fatal(err)
			}
			want[id] = mon.Watch(network, tensor.FromSlice(data, shape...))
		}
	}
	c, err := net.Dial("tcp", g.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(time.Minute))
	if _, err := c.Write(burst); err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint32]bool, n)
	var buf []byte
	for len(seen) < n {
		h, payload, err := ReadFrame(c, buf)
		if err != nil {
			t.Fatalf("after %d responses: %v", len(seen), err)
		}
		buf = payload[:0]
		if h.Type != TypeWatchResp || h.ID >= n || seen[h.ID] {
			t.Fatalf("response %+v: not a watch response, or id unknown or repeated", h)
		}
		seen[h.ID] = true
		v, err := DecodeWatchResp(payload)
		if err != nil {
			t.Fatal(err)
		}
		if w := want[int(h.ID)%len(inputs)]; v.Class != w.Class || v.Monitored != w.Monitored || v.OutOfPattern != w.OutOfPattern {
			t.Fatalf("id %d: verdict %+v, want %+v", h.ID, v, w)
		}
	}
	// responded is bumped after the write returns, so the last burst's
	// count may trail the bytes by a moment.
	deadline := time.Now().Add(10 * time.Second)
	for g.Counters().Responded != n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	ctr := g.Counters()
	if ctr.Responded != n || ctr.Received != n {
		t.Fatalf("counters after a %d-frame burst: %+v", n, ctr)
	}
	if ctr.Writes == 0 || ctr.Writes > n/4 {
		t.Fatalf("%d frames left in %d socket writes, want 1..%d", n, ctr.Writes, n/4)
	}
	t.Logf("%d frames in %d writes", n, ctr.Writes)
	// Operators read the same count off /metrics.
	reg := obs.NewRegistry()
	g.RegisterMetrics(reg)
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	exp, err := obs.ParseExposition(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := exp.Value("napmon_gateway_tcp_writes_total", nil); !ok || uint64(v) != ctr.Writes {
		t.Fatalf("napmon_gateway_tcp_writes_total = %v (ok=%v), Counters.Writes = %d", v, ok, ctr.Writes)
	}
}
