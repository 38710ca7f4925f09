package wire

import (
	"context"
	"net"
	"runtime"
	"testing"
	"time"

	"napmon/internal/chaos"
	"napmon/internal/core"
	"napmon/internal/registry"
	"napmon/internal/serve"
	"napmon/internal/tensor"
)

// TestGatewayReapsSilentConn: a client that sends half a header and
// goes mute is torn down by the read-idle deadline — counted as reaped,
// its goroutines released — instead of pinning the connection forever.
func TestGatewayReapsSilentConn(t *testing.T) {
	g, _, _, _ := toyGatewayParts(t, 26,
		serve.Config{MaxBatch: 4, MaxDelay: time.Millisecond},
		GatewayConfig{ReadIdleTimeout: 150 * time.Millisecond})
	c, err := net.Dial("tcp", g.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write(AppendPing(nil, 1)[:6]); err != nil {
		t.Fatal(err)
	}
	// The gateway must hang up on us; a successful read here would mean
	// it answered a half-frame.
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Fatal("gateway kept a silent half-frame connection alive")
	}
	if got := g.Counters().Reaped; got != 1 {
		t.Fatalf("reaped %d conns, want 1", got)
	}
	deadline := time.Now().Add(5 * time.Second)
	for g.Counters().Conns != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d conns still live after the reap", g.Counters().Conns)
		}
		time.Sleep(time.Millisecond)
	}

	// The reap is per-connection: a fresh, well-behaved one still works.
	good, err := net.Dial("tcp", g.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	good.SetDeadline(time.Now().Add(time.Minute))
	if _, err := good.Write(AppendPing(nil, 2)); err != nil {
		t.Fatal(err)
	}
	if h, _, err := ReadFrame(good, nil); err != nil || h.Type != TypePong {
		t.Fatalf("ping after a reap: %+v, %v", h, err)
	}
}

// TestGatewayKeepsPipeliningConn: the read deadline is armed only
// before a read that can reach the socket, never skipped before one. A
// client pipelining bursts of four pings for three idle windows — the
// later frames of each burst come out of the read buffer — is never
// reaped.
func TestGatewayKeepsPipeliningConn(t *testing.T) {
	const idle = 100 * time.Millisecond
	g, _, _, _ := toyGatewayParts(t, 30,
		serve.Config{MaxBatch: 4},
		GatewayConfig{ReadIdleTimeout: idle})
	c, err := net.Dial("tcp", g.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(time.Minute))
	var id uint32
	var buf []byte
	for start := time.Now(); time.Since(start) < 3*idle; {
		var burst []byte
		for range 4 {
			id++
			burst = AppendPing(burst, id)
		}
		if _, err := c.Write(burst); err != nil {
			t.Fatalf("burst ending at ping %d: %v", id, err)
		}
		for range 4 {
			h, payload, err := ReadFrame(c, buf)
			if err != nil {
				t.Fatalf("pong after ping %d: %v (reaped %d)", id, err, g.Counters().Reaped)
			}
			buf = payload[:0]
			if h.Type != TypePong {
				t.Fatalf("ping answered with %+v", h)
			}
		}
		time.Sleep(idle / 5)
	}
	if got := g.Counters().Reaped; got != 0 {
		t.Fatalf("a pipelining conn was reaped (%d)", got)
	}
}

// smallSendBuffers shrinks every accepted connection's kernel send
// buffer, so a client that stops reading wedges the gateway's writer
// after kilobytes of verdicts instead of megabytes.
type smallSendBuffers struct{ net.Listener }

func (l smallSendBuffers) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetWriteBuffer(4 << 10)
	}
	return c, err
}

// TestGatewayStalledConnIsolated: a client that pipelines watches and
// never reads wedges only its own connection. Its writer blocks on the
// full socket and its reader on the in-flight cap, but the lane serving
// it queues its verdicts without blocking, so a second connection to
// the same tenant gets every verdict before the wedged one is reaped by
// its write deadline. The reap then hands back every token and every
// tenant pin: the connection goes away and the tenant unloads. A dead
// connection takes no further frame: what its read buffer still holds
// is not decoded and served for a reply nobody can receive.
func TestGatewayStalledConnIsolated(t *testing.T) {
	const maxInflight = 8
	network, mon, inputs := toyModel(t, 32)
	reg := registry.New(registry.Config{Grace: time.Minute})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		reg.Close(ctx)
	})
	tn, err := reg.Load("m", registry.TenantConfig{Net: network, Mon: mon,
		Serve: serve.Config{MaxBatch: 8, InputShape: []int{4}}})
	if err != nil {
		t.Fatal(err)
	}
	g := NewFleetGateway(func(id uint32) (TenantLane, error) { return reg.AcquireID(id) }, reg.Len,
		GatewayConfig{MaxInflight: maxInflight, WriteTimeout: 2 * time.Second})
	t.Cleanup(func() { g.Close() })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := g.ServeTCP(smallSendBuffers{ln}); err != nil {
		t.Fatal(err)
	}
	watch := func(id uint32) []byte {
		x := inputs[int(id)%len(inputs)]
		frame, err := AppendWatchReq(nil, id, tn.ID(), x.Shape(), x.Data())
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}

	// The stalled client: pipeline watches until the gateway hangs up.
	stalled, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	stalled.(*net.TCPConn).SetReadBuffer(4 << 10)
	var burst []byte
	for id := uint32(0); id < 64; id++ {
		burst = append(burst, watch(id)...)
	}
	sending := make(chan struct{})
	go func() {
		defer close(sending)
		for {
			if _, err := stalled.Write(burst); err != nil {
				return
			}
		}
	}()

	// Wedged: the writer holds unwritten verdicts for every token and the
	// reader waits for a token with one more frame in hand, and nothing
	// moves.
	wedgeDeadline := time.Now().Add(time.Minute)
	var wedged GatewayCounters
	for prev := (GatewayCounters{}); ; {
		time.Sleep(50 * time.Millisecond)
		ct := g.Counters()
		if ct.Received-ct.Responded == maxInflight+1 && ct.Received == prev.Received && ct.Responded == prev.Responded {
			wedged = ct
			break
		}
		if ct.Reaped != 0 || time.Now().After(wedgeDeadline) {
			t.Fatalf("stalled conn never wedged: %+v", ct)
		}
		prev = ct
	}

	// The second connection is served while the first stays wedged.
	good, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	good.SetDeadline(time.Now().Add(time.Minute))
	const goodWatches = 32
	var buf []byte
	for id := uint32(0); id < goodWatches; id++ {
		if _, err := good.Write(watch(id)); err != nil {
			t.Fatal(err)
		}
		h, payload, err := ReadFrame(good, buf)
		if err != nil {
			t.Fatalf("watch %d on the second conn: %v", id, err)
		}
		buf = payload[:0]
		if h.Type != TypeWatchResp || h.ID != id {
			t.Fatalf("watch %d on the second conn answered with %+v", id, h)
		}
	}
	if ct := g.Counters(); ct.Reaped != 0 {
		t.Fatalf("second conn's verdicts waited for the stalled conn's reap: %+v", ct)
	}

	// The write deadline reaps the stalled conn, and its teardown hands
	// back its tokens (the conn goes away) and its pins (Unload drains).
	reapDeadline := time.Now().Add(time.Minute)
	for ct := g.Counters(); ct.Reaped != 1 || ct.Conns != 1; ct = g.Counters() {
		if ct.Reaped > 1 || time.Now().After(reapDeadline) {
			t.Fatalf("stalled conn not reaped alone: %+v", ct)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got, want := g.Counters().Received, wedged.Received+goodWatches; got != want {
		t.Fatalf("%d frames received, want %d: the dead conn took %d more", got, want, got-want)
	}
	stalled.Close()
	<-sending
	good.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := reg.Unload(ctx, "m"); err != nil {
		t.Fatalf("unload after the reap: %v (a pin was never released)", err)
	}
}

// TestGatewayMalformedBudget: well-framed frames whose payloads fail
// their codec earn error replies up to the connection's budget, then the
// gateway stops talking to the peer and counts it.
func TestGatewayMalformedBudget(t *testing.T) {
	const budget = 3
	g, _, _, _ := toyGatewayParts(t, 27,
		serve.Config{MaxBatch: 4, MaxDelay: time.Millisecond},
		GatewayConfig{MalformedBudget: budget})
	c, err := net.Dial("tcp", g.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(time.Minute))

	// A watch request with a one-byte payload frames correctly but fails
	// DecodeWatchReq — the resyncable kind of malformed the budget
	// governs. One frame per round trip: pipelining them would leave
	// unread bytes at the server's hangup, turning the close into an RST
	// that destroys the queued replies.
	bad := func(id uint32) []byte {
		return append(AppendHeader(nil, TypeWatchReq, id, 1), 0xff)
	}
	for i := 0; i < budget; i++ {
		if _, err := c.Write(bad(uint32(i))); err != nil {
			t.Fatalf("bad frame %d: %v", i, err)
		}
		h, payload, err := ReadFrame(c, nil)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if h.Type != TypeErr {
			t.Fatalf("bad payload answered with %+v", h)
		}
		if code, _, derr := DecodeErr(payload); derr != nil || code != ErrCodeBadRequest {
			t.Fatalf("bad payload error code %d, %v", code, derr)
		}
	}
	// The budget is spent: the stream is over.
	if h, _, err := ReadFrame(c, nil); err == nil {
		t.Fatalf("connection survived its malformed budget (got %+v)", h)
	}
	ct := g.Counters()
	if ct.OverBudget != 1 {
		t.Fatalf("over-budget conns %d, want 1", ct.OverBudget)
	}
	if ct.Malformed < budget {
		t.Fatalf("malformed %d, want >= %d", ct.Malformed, budget)
	}
}

// TestGatewayChaosTCP drives real watch traffic through a gateway whose
// listener injects a seeded, bounded schedule of resets, stalls, partial
// writes and accept failures. The contract under fire: every watch
// response the client manages to receive carries the exact verdict the
// monitor computes directly; once the fault budget drains the transport
// serves flawlessly again; and teardown leaks no goroutines.
//
// Corruption is deliberately absent from the mix: request payloads are
// not checksummed, so a corrupted-but-decodable input would earn an
// honest verdict for data the client never sent — correct behavior, but
// unverifiable from this side of the socket. The chaos package tests and
// the chaos-smoke gate cover that fault.
func TestGatewayChaosTCP(t *testing.T) {
	baseline := runtime.NumGoroutine()

	srv, network, mon, inputs := toyLane(t, 28, serve.Config{MaxBatch: 4, MaxDelay: time.Millisecond})
	g := NewGateway(srv, mon, GatewayConfig{ReadIdleTimeout: 2 * time.Second, WriteTimeout: 2 * time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sched := chaos.NewSchedule(29, chaos.Rates{
		Reset:        0.04,
		ReadStall:    0.04,
		WriteStall:   0.04,
		PartialWrite: 0.04,
		AcceptFail:   0.15,
		StallFor:     20 * time.Millisecond,
		MaxFaults:    25,
	})
	if err := g.ServeTCP(chaos.WrapListener(ln, sched, nil)); err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()

	// The wire narrows inputs to float32, so expectations come from the
	// narrowed tensor — same idiom as the clean-path TCP test.
	direct := func(x *tensor.Tensor) core.Verdict {
		frame, err := AppendWatchReq(nil, 0, DefaultTenant, x.Shape(), x.Data())
		if err != nil {
			t.Fatal(err)
		}
		_, shape, data, err := DecodeWatchReq(frame[HeaderSize:])
		if err != nil {
			t.Fatal(err)
		}
		return mon.WatchBatch(network, []*tensor.Tensor{tensor.FromSlice(data, shape...)})[0]
	}

	var c net.Conn
	drop := func() {
		if c != nil {
			c.Close()
			c = nil
		}
	}
	// exchange runs one request/response round trip, reporting whether a
	// verdict came back. Any transport failure drops the connection; the
	// next round re-dials.
	var id uint32
	verdicts, failures := 0, 0
	exchange := func(x *tensor.Tensor) {
		if c == nil {
			var err error
			if c, err = net.Dial("tcp", addr); err != nil {
				failures++
				time.Sleep(10 * time.Millisecond)
				return
			}
			c.SetDeadline(time.Now().Add(time.Minute))
		}
		id++
		frame, err := AppendWatchReq(nil, id, DefaultTenant, x.Shape(), x.Data())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(frame); err != nil {
			failures++
			drop()
			return
		}
		h, payload, err := ReadFrame(c, nil)
		if err != nil {
			failures++
			drop()
			return
		}
		// A response that does arrive must be the right one: correct id,
		// correct type, verdict identical to the direct computation.
		if h.Type != TypeWatchResp || h.ID != id {
			t.Fatalf("watch %d answered with %+v", id, h)
		}
		got, err := DecodeWatchResp(payload)
		if err != nil {
			t.Fatalf("watch %d: undecodable verdict: %v", id, err)
		}
		want := direct(x)
		if got.Class != want.Class || got.Monitored != want.Monitored ||
			got.OutOfPattern != want.OutOfPattern ||
			core.Hamming(got.Pattern, want.Pattern) != 0 {
			t.Fatalf("watch %d: verdict %+v != direct %+v", id, got, want)
		}
		verdicts++
	}

	// Phase 1: hammer until the fault budget drains. Every fault lands on
	// live traffic somewhere — a killed connection shows up as a failed
	// round trip and a re-dial, never as a wrong answer.
	budgetDeadline := time.Now().Add(2 * time.Minute)
	for !sched.Drained() {
		if time.Now().After(budgetDeadline) {
			t.Fatalf("fault budget never drained: %d injected", sched.Injected())
		}
		exchange(inputs[int(id)%len(inputs)])
	}

	// Phase 2: drained schedule, clean transport — a fresh connection
	// must serve every request correctly with no failures.
	drop()
	preFailures := failures
	for i := 0; i < 16; i++ {
		exchange(inputs[i%len(inputs)])
	}
	if failures != preFailures {
		t.Fatalf("%d round trips failed after the fault budget drained", failures-preFailures)
	}
	if verdicts == 0 {
		t.Fatal("no verdicts survived the fault schedule")
	}
	t.Logf("chaos run: %d verdicts, %d failed round trips, %d faults injected", verdicts, failures, sched.Injected())

	// Teardown, then the leak check: everything the gateway and server
	// spawned — conn readers/writers, responders, lanes, the chaos-stall
	// sleepers — must be gone.
	drop()
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	leakDeadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(leakDeadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d live, baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
