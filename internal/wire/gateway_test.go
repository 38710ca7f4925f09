package wire

import (
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"napmon/internal/core"
	"napmon/internal/nn"
	"napmon/internal/rng"
	"napmon/internal/serve"
	"napmon/internal/tensor"
)

// toyLane trains the small 3-class dense network used across the serve
// tests and wraps it in a running server. The caller owns the server's
// shutdown — tests that count goroutines need to control teardown order
// themselves.
func toyLane(t testing.TB, seed uint64, scfg serve.Config) (*serve.Server, *nn.Network, *core.Monitor, []*tensor.Tensor) {
	t.Helper()
	network, mon, inputs := toyModel(t, seed)
	scfg.InputShape = []int{4}
	srv, err := serve.New(network, mon, scfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv, network, mon, inputs
}

// toyModel is toyLane's network, γ = 1 monitor and 32 validation inputs,
// without a server: inputs are shaped [4].
func toyModel(t testing.TB, seed uint64) (*nn.Network, *core.Monitor, []*tensor.Tensor) {
	t.Helper()
	r := rng.New(seed)
	centers := [][4]float64{
		{2, 0, -2, 0},
		{-2, 2, 0, -1},
		{0, -2, 2, 1},
	}
	gen := func(n int) []nn.Sample {
		out := make([]nn.Sample, 0, n)
		for i := 0; i < n; i++ {
			label := i % len(centers)
			x := tensor.New(4)
			for j := range x.Data() {
				x.Data()[j] = r.NormScaled(centers[label][j], 0.6)
			}
			out = append(out, nn.Sample{Input: x, Label: label})
		}
		return out
	}
	train := gen(300)
	network := nn.New(
		nn.NewDense(4, 16, r), nn.NewReLU(),
		nn.NewDense(16, 10, r), nn.NewReLU(),
		nn.NewDense(10, 3, r),
	)
	nn.Train(network, train, nn.TrainConfig{Epochs: 15, BatchSize: 16, LR: 0.05, Seed: seed})
	mon, err := core.Build(network, train, core.Config{Layer: 3, Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	val := gen(32)
	inputs := make([]*tensor.Tensor, len(val))
	for i, s := range val {
		inputs[i] = s.Input
	}
	return network, mon, inputs
}

// toyGatewayParts is toyLane plus a gateway on loopback ephemeral ports
// (UDP and TCP), with teardown registered on the test.
func toyGatewayParts(t testing.TB, seed uint64, scfg serve.Config, gcfg GatewayConfig) (*Gateway, *nn.Network, *core.Monitor, []*tensor.Tensor) {
	t.Helper()
	srv, network, mon, inputs := toyLane(t, seed, scfg)
	g := NewGateway(srv, mon, gcfg)
	if err := g.ListenUDP("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := g.ListenTCP("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		g.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("server shutdown: %v", err)
		}
	})
	return g, network, mon, inputs
}

// udpExchange sends one frame and reads one response datagram.
func udpExchange(t *testing.T, c net.Conn, frame []byte) (Header, []byte) {
	t.Helper()
	if _, err := c.Write(frame); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, MaxUDPFrame)
	n, err := c.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	pkt := buf[:n]
	if !BasicPacketFilter(pkt) {
		t.Fatalf("response fails the packet filter: %#02x", pkt[:min(n, 16)])
	}
	h, err := ParseHeader(pkt)
	if err != nil {
		t.Fatal(err)
	}
	return h, pkt[HeaderSize : HeaderSize+int(h.PayloadLen)]
}

func TestGatewayUDP(t *testing.T) {
	g, network, mon, inputs := toyGatewayParts(t, 21, serve.Config{MaxBatch: 8, MaxDelay: time.Millisecond}, GatewayConfig{})
	c, err := net.Dial("udp", g.UDPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Ping → pong with the id echoed.
	h, _ := udpExchange(t, c, AppendPing(nil, 99))
	if h.Type != TypePong || h.ID != 99 {
		t.Fatalf("ping answered with %+v", h)
	}

	// Watch verdicts match the direct path (the monitor is frozen, so
	// reading it concurrently with the server is safe).
	// Toy inputs are generated float64s — not exactly representable in
	// float32 — so compare against the direct verdict of the narrowed
	// input, which is what the wire carries.
	for i, x := range inputs {
		frame, err := AppendWatchReq(nil, uint32(i), DefaultTenant, x.Shape(), x.Data())
		if err != nil {
			t.Fatal(err)
		}
		_, narrowShape, narrowData, err := DecodeWatchReq(frame[HeaderSize:])
		if err != nil {
			t.Fatal(err)
		}
		want := mon.WatchBatch(network, []*tensor.Tensor{tensor.FromSlice(narrowData, narrowShape...)})[0]
		h, payload := udpExchange(t, c, frame)
		if h.Type != TypeWatchResp || h.ID != uint32(i) {
			t.Fatalf("watch %d answered with %+v", i, h)
		}
		got, err := DecodeWatchResp(payload)
		if err != nil {
			t.Fatal(err)
		}
		if got.Class != want.Class || got.Monitored != want.Monitored ||
			got.OutOfPattern != want.OutOfPattern ||
			core.Hamming(got.Pattern, want.Pattern) != 0 {
			t.Fatalf("watch %d: wire verdict %+v != direct %+v", i, got, want)
		}
	}

	// Stats reflects the served traffic and the gateway accounting.
	h, payload := udpExchange(t, c, AppendStatsReq(nil, 1000, DefaultTenant))
	if h.Type != TypeStatsResp {
		t.Fatalf("stats answered with %+v", h)
	}
	st, err := DecodeStatsResp(payload)
	if err != nil {
		t.Fatal(err)
	}
	if st.Served < uint64(len(inputs)) {
		t.Fatalf("stats served %d, want >= %d", st.Served, len(inputs))
	}
	if st.GwReceived < uint64(len(inputs))+2 {
		t.Fatalf("stats gw received %d, want >= %d", st.GwReceived, len(inputs)+2)
	}

	// Learn absorbs a pattern and publishes a new epoch.
	width := len(mon.Neurons())
	pat := make(core.Pattern, width)
	for i := range pat {
		pat[i] = i%2 == 0
	}
	before := mon.Epoch()
	lr, err := AppendLearnReq(nil, 2000, DefaultTenant, 1, []core.Pattern{pat})
	if err != nil {
		t.Fatal(err)
	}
	h, payload = udpExchange(t, c, lr)
	if h.Type != TypeLearnResp {
		code, msg, _ := DecodeErr(payload)
		t.Fatalf("learn answered with %+v (code %d: %s)", h, code, msg)
	}
	epoch, absorbed, err := DecodeLearnResp(payload)
	if err != nil || absorbed != 1 || epoch != before+1 {
		t.Fatalf("learn: epoch %d (before %d), absorbed %d, %v", epoch, before, absorbed, err)
	}

	// A wrong-width learn is a clean error, not a dead gateway.
	lr, err = AppendLearnReq(nil, 2001, DefaultTenant, 1, []core.Pattern{{true, false}})
	if err != nil {
		t.Fatal(err)
	}
	h, payload = udpExchange(t, c, lr)
	if h.Type != TypeErr {
		t.Fatalf("bad-width learn answered with %+v", h)
	}
	if code, _, err := DecodeErr(payload); err != nil || code != ErrCodeBadRequest {
		t.Fatalf("bad-width learn code %d, %v", code, err)
	}

	// A response type sent to the server is answered with an error.
	h, _ = udpExchange(t, c, AppendPong(nil, 3000))
	if h.Type != TypeErr {
		t.Fatalf("pong-at-server answered with %+v", h)
	}

	// Garbage datagrams are filtered and counted, never answered.
	malformedBefore := g.Counters().Malformed
	if _, err := c.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for g.Counters().Malformed == malformedBefore {
		if time.Now().After(deadline) {
			t.Fatal("malformed datagram never counted")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestGatewayTCP(t *testing.T) {
	g, network, mon, inputs := toyGatewayParts(t, 22, serve.Config{MaxBatch: 8, MaxDelay: time.Millisecond}, GatewayConfig{})
	c, err := net.Dial("tcp", g.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(time.Minute))

	// Pipeline every watch request up front on the persistent
	// connection, then collect responses (possibly out of order) and
	// match them to expectations by frame id.
	want := make(map[uint32]core.Verdict, len(inputs))
	var frames []byte
	for i, x := range inputs {
		frame, err := AppendWatchReq(nil, uint32(i), DefaultTenant, x.Shape(), x.Data())
		if err != nil {
			t.Fatal(err)
		}
		_, narrowShape, narrowData, err := DecodeWatchReq(frame[HeaderSize:])
		if err != nil {
			t.Fatal(err)
		}
		want[uint32(i)] = mon.WatchBatch(network, []*tensor.Tensor{tensor.FromSlice(narrowData, narrowShape...)})[0]
		frames = append(frames, frame...)
	}
	if _, err := c.Write(frames); err != nil {
		t.Fatal(err)
	}
	for range inputs {
		h, payload, err := ReadFrame(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		if h.Type != TypeWatchResp {
			t.Fatalf("pipelined watch answered with %+v", h)
		}
		w, ok := want[h.ID]
		if !ok {
			t.Fatalf("duplicate or unknown response id %d", h.ID)
		}
		delete(want, h.ID)
		got, err := DecodeWatchResp(payload)
		if err != nil {
			t.Fatal(err)
		}
		if got.Class != w.Class || got.OutOfPattern != w.OutOfPattern {
			t.Fatalf("id %d: wire verdict %+v != direct %+v", h.ID, got, w)
		}
	}
	if len(want) != 0 {
		t.Fatalf("%d responses missing", len(want))
	}

	// Stats over the same connection.
	if _, err := c.Write(AppendStatsReq(nil, 7, DefaultTenant)); err != nil {
		t.Fatal(err)
	}
	h, payload, err := ReadFrame(c, nil)
	if err != nil || h.Type != TypeStatsResp {
		t.Fatalf("stats: %+v, %v", h, err)
	}
	st, err := DecodeStatsResp(payload)
	if err != nil {
		t.Fatal(err)
	}
	if st.Served < uint64(len(inputs)) {
		t.Fatalf("stats served %d, want >= %d", st.Served, len(inputs))
	}
	if st.GwDropped != 0 || st.GwMalformed != 0 {
		t.Fatalf("clean TCP run dropped %d / malformed %d", st.GwDropped, st.GwMalformed)
	}
}

// TestGatewayTCPMalformedKillsConn: a garbage header is unresyncable,
// so the gateway counts it and closes that connection — while other
// connections keep working.
func TestGatewayTCPMalformedKillsConn(t *testing.T) {
	g, _, _, inputs := toyGatewayParts(t, 23, serve.Config{MaxBatch: 4, MaxDelay: time.Millisecond}, GatewayConfig{})

	bad, err := net.Dial("tcp", g.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	if _, err := bad.Write([]byte("garbage garbage ")); err != nil {
		t.Fatal(err)
	}
	bad.SetReadDeadline(time.Now().Add(10 * time.Second))
	onebyte := make([]byte, 1)
	if _, err := bad.Read(onebyte); err == nil {
		t.Fatal("connection survived a malformed header")
	}
	if got := g.Counters().Malformed; got == 0 {
		t.Fatal("malformed stream frame not counted")
	}

	good, err := net.Dial("tcp", g.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	good.SetDeadline(time.Now().Add(time.Minute))
	frame, err := AppendWatchReq(nil, 1, DefaultTenant, inputs[0].Shape(), inputs[0].Data())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := good.Write(frame); err != nil {
		t.Fatal(err)
	}
	if h, _, err := ReadFrame(good, nil); err != nil || h.Type != TypeWatchResp {
		t.Fatalf("fresh connection after a poisoned one: %+v, %v", h, err)
	}
}

// TestGatewayTCPSustained pushes a few hundred pipelined requests from
// several connections through a small queue, exercising the
// backpressure chain (inflight cap → Submit block → TCP flow control)
// without dropping a single frame.
func TestGatewayTCPSustained(t *testing.T) {
	g, _, _, inputs := toyGatewayParts(t, 24,
		serve.Config{MaxBatch: 8, MaxDelay: time.Millisecond, QueueDepth: 4},
		GatewayConfig{MaxInflight: 8})
	const conns, perConn = 4, 100
	errc := make(chan error, conns)
	for ci := 0; ci < conns; ci++ {
		go func(ci int) {
			errc <- func() error {
				c, err := net.Dial("tcp", g.TCPAddr().String())
				if err != nil {
					return err
				}
				defer c.Close()
				c.SetDeadline(time.Now().Add(time.Minute))
				done := make(chan error, 1)
				go func() {
					var buf []byte
					for i := 0; i < perConn; i++ {
						h, payload, err := ReadFrame(c, buf)
						if err != nil {
							done <- err
							return
						}
						buf = payload[:0]
						if h.Type != TypeWatchResp {
							done <- &net.AddrError{Err: "unexpected frame", Addr: ""}
							return
						}
					}
					done <- nil
				}()
				for i := 0; i < perConn; i++ {
					x := inputs[(ci+i)%len(inputs)]
					frame, err := AppendWatchReq(nil, uint32(i), DefaultTenant, x.Shape(), x.Data())
					if err != nil {
						return err
					}
					if _, err := c.Write(frame); err != nil {
						return err
					}
				}
				return <-done
			}()
		}(ci)
	}
	for i := 0; i < conns; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	// A writer bumps Responded after its write returns, which can be after
	// the client has read the bytes; Close waits for every writer, so the
	// counters are exact from here on.
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	ct := g.Counters()
	if ct.Received != conns*perConn {
		t.Fatalf("received %d frames, want %d", ct.Received, conns*perConn)
	}
	if ct.Responded != conns*perConn {
		t.Fatalf("responded %d frames, want %d", ct.Responded, conns*perConn)
	}
	if ct.Dropped != 0 || ct.Malformed != 0 {
		t.Fatalf("sustained TCP run dropped %d / malformed %d", ct.Dropped, ct.Malformed)
	}
}

// TestGatewayCloseIdempotent: Close twice, with a connection open, is
// clean; the conn count drains to zero.
func TestGatewayCloseIdempotent(t *testing.T) {
	g, _, _, _ := toyGatewayParts(t, 25, serve.Config{}, GatewayConfig{})
	c, err := net.Dial("tcp", g.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write(AppendPing(nil, 1)); err != nil {
		t.Fatal(err)
	}
	if h, _, err := ReadFrame(c, nil); err != nil || h.Type != TypePong {
		t.Fatalf("ping before close: %+v, %v", h, err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if got := g.Counters().Conns; got != 0 {
		t.Fatalf("%d conns live after Close", got)
	}
	if err := g.ListenTCP("127.0.0.1:0"); err == nil {
		t.Fatal("ListenTCP accepted after Close")
	}
}

// fleetLane is a resolver-side fake: a real serving lane plus pin
// accounting, standing in for a registry tenant.
type fleetLane struct {
	srv      *serve.Server
	mon      *core.Monitor
	acquires *atomic.Int64
	releases *atomic.Int64
	learns   *atomic.Int64
}

func (l fleetLane) Server() *serve.Server  { return l.srv }
func (l fleetLane) Monitor() *core.Monitor { return l.mon }
func (l fleetLane) Release()               { l.releases.Add(1) }

// Learn counts the call before publishing, pinning the gateway to the
// lane's learn entry point: a registry lane's Learn is what feeds its
// replication delta log, so a gateway that published via
// Server().Update directly would leak epochs past every follower.
func (l fleetLane) Learn(delta map[int][]core.Pattern) (uint64, error) {
	l.learns.Add(1)
	return l.srv.Update(delta)
}

// TestFleetGatewayRouting drives the v3 tenant dimension end to end
// over UDP: frames route to the lane their tenant id names, an unknown
// id answers ErrCodeUnknownTenant, stats report the addressed tenant,
// and every resolved pin is released.
func TestFleetGatewayRouting(t *testing.T) {
	r := rng.New(31)
	mkLane := func() fleetLane {
		net := nn.New(
			nn.NewDense(4, 8, r), nn.NewReLU(),
			nn.NewDense(8, 3, r),
		)
		samples := make([]nn.Sample, 0, 24)
		for i := 0; i < 24; i++ {
			x := tensor.New(4)
			for j := range x.Data() {
				x.Data()[j] = r.NormScaled(0, 1)
			}
			samples = append(samples, nn.Sample{Input: x, Label: i % 3})
		}
		mon, err := core.Build(net, samples, core.Config{Layer: 1, Gamma: 1})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := serve.New(net, mon, serve.Config{MaxBatch: 4, MaxDelay: time.Millisecond, InputShape: []int{4}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			srv.Shutdown(ctx)
		})
		return fleetLane{srv: srv, mon: mon, acquires: new(atomic.Int64), releases: new(atomic.Int64), learns: new(atomic.Int64)}
	}
	lanes := map[uint32]fleetLane{0: mkLane(), 7: mkLane()}
	g := NewFleetGateway(func(id uint32) (TenantLane, error) {
		l, ok := lanes[id]
		if !ok {
			return nil, fmt.Errorf("tenant %d not loaded", id)
		}
		l.acquires.Add(1)
		return l, nil
	}, func() int { return len(lanes) }, GatewayConfig{})
	if err := g.ListenUDP("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	c, err := net.Dial("udp", g.UDPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Watch frames land on the lane their tenant id names.
	input := tensor.New(4)
	for tenant, wantEpochBump := range map[uint32]bool{0: false, 7: true} {
		frame, err := AppendWatchReq(nil, 100+tenant, tenant, input.Shape(), input.Data())
		if err != nil {
			t.Fatal(err)
		}
		h, _ := udpExchange(t, c, frame)
		if h.Type != TypeWatchResp {
			t.Fatalf("tenant %d watch answered with %+v", tenant, h)
		}
		_ = wantEpochBump
	}

	// A learn addressed to tenant 7 moves only tenant 7's epoch.
	before0, before7 := lanes[0].mon.Epoch(), lanes[7].mon.Epoch()
	pat := make(core.Pattern, len(lanes[7].mon.Neurons()))
	lr, err := AppendLearnReq(nil, 200, 7, 1, []core.Pattern{pat})
	if err != nil {
		t.Fatal(err)
	}
	h, payload := udpExchange(t, c, lr)
	if h.Type != TypeLearnResp {
		code, msg, _ := DecodeErr(payload)
		t.Fatalf("fleet learn answered with %+v (code %d: %s)", h, code, msg)
	}
	if got := lanes[7].mon.Epoch(); got != before7+1 {
		t.Fatalf("tenant 7 epoch %d, want %d", got, before7+1)
	}
	if got := lanes[0].mon.Epoch(); got != before0 {
		t.Fatalf("tenant 0 epoch moved to %d on a tenant-7 learn", got)
	}
	if got := lanes[7].learns.Load(); got != 1 {
		t.Fatalf("learn frame went through lane.Learn %d times, want 1 (replication log would miss the epoch)", got)
	}

	// Stats report the addressed tenant and the fleet size.
	h, payload = udpExchange(t, c, AppendStatsReq(nil, 300, 7))
	if h.Type != TypeStatsResp {
		t.Fatalf("fleet stats answered with %+v", h)
	}
	st, err := DecodeStatsResp(payload)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tenant != 7 || st.Tenants != 2 {
		t.Fatalf("stats tenant %d of %d, want 7 of 2", st.Tenant, st.Tenants)
	}
	if st.Epoch != before7+1 {
		t.Fatalf("stats epoch %d, want tenant 7's %d", st.Epoch, before7+1)
	}

	// An unloaded tenant id answers ErrCodeUnknownTenant for every
	// request type.
	wf, err := AppendWatchReq(nil, 400, 3, input.Shape(), input.Data())
	if err != nil {
		t.Fatal(err)
	}
	lf, err := AppendLearnReq(nil, 401, 3, 1, []core.Pattern{pat})
	if err != nil {
		t.Fatal(err)
	}
	for _, frame := range [][]byte{wf, lf, AppendStatsReq(nil, 402, 3)} {
		h, payload := udpExchange(t, c, frame)
		if h.Type != TypeErr {
			t.Fatalf("unknown tenant answered with %+v", h)
		}
		if code, _, err := DecodeErr(payload); err != nil || code != ErrCodeUnknownTenant {
			t.Fatalf("unknown tenant code %d, %v", code, err)
		}
	}

	// Close the gateway: every pin taken by the resolver must have been
	// released — the lease discipline a draining registry relies on.
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	for id, l := range lanes {
		if a, r := l.acquires.Load(), l.releases.Load(); a == 0 || a != r {
			t.Fatalf("tenant %d: %d acquires, %d releases", id, a, r)
		}
	}
}
