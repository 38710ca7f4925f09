package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"napmon/internal/core"
	"napmon/internal/obs"
	"napmon/internal/serve"
	"napmon/internal/tensor"
)

// GatewayConfig sizes a Gateway. The zero value of any field selects
// its default.
type GatewayConfig struct {
	// MaxInflight bounds the frames a single TCP connection may have
	// accepted but not yet written — watch requests being served, and
	// every answer, the reader's own pong, stats, learn and error frames
	// included, until the writer has written it — before its reader
	// stalls (default 1024). It is also the capacity of the
	// connection's outbound queue, so queueing an answer never blocks,
	// whichever goroutine does it. Together with the serve queue it
	// bounds gateway memory no matter how hard clients push.
	MaxInflight int
	// ReadIdleTimeout bounds the silence between a TCP client's frames
	// (default 30s, negative disables): the reader arms a read deadline
	// before every read that can block — whenever its buffer does not
	// already hold the whole next frame — so a conn that stalls
	// mid-header or goes mute is reaped (Counters.Reaped) instead of
	// pinning its goroutines forever. Clients only waiting on in-flight
	// verdicts still count as idle — pipeline or ping within the window
	// to stay alive.
	ReadIdleTimeout time.Duration
	// WriteTimeout bounds each response write — one frame, or the burst
	// of queued frames the writer gathered into it (default 10s,
	// negative disables). A client that stops draining its socket beyond
	// what the socket buffers absorb fails the write; the connection is
	// reaped rather than left wedged.
	WriteTimeout time.Duration
	// MalformedBudget is how many malformed-but-resyncable frames
	// (payloads that fail their codec — framing errors already kill the
	// stream) one TCP connection may send before the gateway stops
	// talking to it (default 8, negative disables). A peer speaking the
	// wrong dialect gets a few error frames to notice, not a permanent
	// error-reply amplifier.
	MalformedBudget int
}

func (c GatewayConfig) withDefaults() GatewayConfig {
	if c.MaxInflight == 0 {
		c.MaxInflight = 1024
	}
	if c.ReadIdleTimeout == 0 {
		c.ReadIdleTimeout = 30 * time.Second
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.MalformedBudget == 0 {
		c.MalformedBudget = 8
	}
	return c
}

// GatewayCounters is a snapshot of a gateway's frame accounting.
type GatewayCounters struct {
	// Received counts frames accepted past stream header validation.
	Received uint64
	// Responded counts response frames successfully handed to a socket.
	// A frame is counted after its write returns, so while connections
	// are live the count may trail what a client has already read; it is
	// exact once Close has returned (Close waits for every writer).
	Responded uint64
	// Writes counts socket writes that succeeded; each carries every
	// response frame its connection's writer found queued, so
	// Responded/Writes is frames per write.
	Writes uint64
	// Malformed counts stream frames with invalid headers (those also
	// kill their connection — a byte stream cannot resync) and
	// well-framed requests whose payload failed its codec.
	Malformed uint64
	// Dropped is always 0: the gateway blocks under pressure and sheds
	// nothing. The field stays because benchmark probes read it.
	Dropped uint64
	// Reaped counts TCP connections torn down by a deadline — read-idle
	// silence or a response write that timed out.
	Reaped uint64
	// OverBudget counts TCP connections torn down for exhausting their
	// malformed-frame budget.
	OverBudget uint64
	// Conns is the number of currently live TCP connections.
	Conns uint64
}

// TenantLane is one routable serving lane: the server frames submit to,
// the monitor the learn path validates against, and the lane's own
// learn entry point. Learn must publish the update AND record it
// wherever the lane replicates from — a fleet registry appends the
// (epoch, delta) pair to its tenant's delta log, so followers see
// wire-published epochs too; going straight to Server().Update would
// silently skip that log and stall replication. A lane handed out by
// a TenantResolver is pinned — the gateway calls Release exactly once
// when the frame's work is done, so a fleet registry can drain an
// unloading tenant without killing the frame's in-flight batch. For a
// watch that is when its verdict is in, on the goroutine of the serve
// lane that produced it, so Release must not block: registry.Tenant's
// last Release starts its drain on a goroutine of its own.
// registry.Tenant implements the interface structurally.
type TenantLane interface {
	Server() *serve.Server
	Monitor() *core.Monitor
	Learn(delta map[int][]core.Pattern) (uint64, error)
	Release()
}

// TenantResolver pins the lane for a wire tenant id, or reports that no
// such tenant is loaded. It runs once per routed frame, so it must be
// cheap — an atomic table lookup, not a lock queue.
type TenantResolver func(id uint32) (TenantLane, error)

// staticLane adapts a fixed server/monitor pair — the single-tenant
// gateway — to the lane interface. Nothing ever unloads it, so Release
// is a no-op.
type staticLane struct {
	srv *serve.Server
	mon *core.Monitor
}

func (l staticLane) Server() *serve.Server  { return l.srv }
func (l staticLane) Monitor() *core.Monitor { return l.mon }
func (l staticLane) Release()               {}

// Learn publishes straight through the server: a static lane has no
// replication log to feed.
func (l staticLane) Learn(delta map[int][]core.Pattern) (uint64, error) {
	return l.srv.Update(delta)
}

// Gateway serves the binary wire protocol over persistent TCP streams,
// routing each frame by its tenant id to one serving lane and feeding
// that lane's micro-batching coalescer.
//
// Backpressure is one policy: block. A connection's reader submits with
// the blocking SubmitFunc and bounds its unwritten answers with a
// per-connection in-flight cap, so a server at capacity simply stops
// reading that socket and TCP flow control pushes back to the client —
// no frame is ever dropped. A watch verdict goes from the lane that
// served it straight onto the connection's outbound queue: no goroutine
// waits per request.
//
// Responses carry the request's frame id and may be written out of
// order; pipelining clients match on id.
type Gateway struct {
	resolve TenantResolver
	tenants func() int
	cfg     GatewayConfig

	tcp net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	wg sync.WaitGroup // listener loops and conn readers/writers

	received   atomic.Uint64
	responded  atomic.Uint64
	writes     atomic.Uint64
	malformed  atomic.Uint64
	reaped     atomic.Uint64
	overBudget atomic.Uint64
	connCount  atomic.Uint64
}

// NewGateway wraps a running serve.Server (and the monitor it serves —
// the learn path and the stats epoch come from it) in a single-tenant
// protocol gateway: only the default tenant id (0) routes; every other
// id answers ErrCodeUnknownTenant. Call ListenTCP (or ServeTCP) to
// bind the transport, Close to stop.
func NewGateway(srv *serve.Server, mon *core.Monitor, cfg GatewayConfig) *Gateway {
	lane := staticLane{srv: srv, mon: mon}
	return NewFleetGateway(func(id uint32) (TenantLane, error) {
		if id != DefaultTenant {
			return nil, fmt.Errorf("wire: tenant %d not loaded (single-tenant gateway)", id)
		}
		return lane, nil
	}, func() int { return 1 }, cfg)
}

// NewFleetGateway builds a multi-tenant gateway: every routed frame
// (watch, learn, stats) pins its lane through resolve for the duration
// of its work; count reports the fleet size for stats responses. A
// fleet registry's AcquireID is the intended resolver.
func NewFleetGateway(resolve TenantResolver, count func() int, cfg GatewayConfig) *Gateway {
	return &Gateway{
		resolve: resolve,
		tenants: count,
		cfg:     cfg.withDefaults(),
		conns:   make(map[net.Conn]struct{}),
	}
}

// Counters returns a snapshot of the gateway's frame accounting.
func (g *Gateway) Counters() GatewayCounters {
	return GatewayCounters{
		Received:   g.received.Load(),
		Responded:  g.responded.Load(),
		Writes:     g.writes.Load(),
		Malformed:  g.malformed.Load(),
		Reaped:     g.reaped.Load(),
		OverBudget: g.overBudget.Load(),
		Conns:      g.connCount.Load(),
	}
}

// ListenTCP binds the stream transport and starts its accept loop.
func (g *Gateway) ListenTCP(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return g.ServeTCP(ln)
}

// ServeTCP starts the stream accept loop on an externally prepared
// listener — the seam fault-injection gates use to slide a
// chaos-wrapped listener under the gateway. The gateway owns ln from
// here on: Close closes it. ListenTCP is net.Listen followed by
// ServeTCP.
func (g *Gateway) ServeTCP(ln net.Listener) error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		ln.Close()
		return errors.New("wire: gateway closed")
	}
	g.tcp = ln
	g.mu.Unlock()
	g.wg.Add(1)
	go g.serveTCP(ln)
	return nil
}

// isClosed reports whether Close has begun — the accept loop uses it
// to tell a shutdown from a transient transport error.
func (g *Gateway) isClosed() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.closed
}

// TCPAddr returns the bound TCP address (nil before ListenTCP).
func (g *Gateway) TCPAddr() net.Addr {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.tcp == nil {
		return nil
	}
	return g.tcp.Addr()
}

// Close stops the listeners, closes every live connection and waits
// for all gateway goroutines to exit — which they do only once every
// watch request they accepted has completed, so Close waits on the
// serve.Server behind the gateway for those. It does not shut that
// server down: accepted requests still complete (their responses go
// nowhere once the sockets are gone). Close the gateway before draining
// the server so in-flight verdicts can still be delivered.
func (g *Gateway) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		g.wg.Wait()
		return nil
	}
	g.closed = true
	tcp := g.tcp
	conns := make([]net.Conn, 0, len(g.conns))
	for c := range g.conns {
		conns = append(conns, c)
	}
	g.mu.Unlock()
	if tcp != nil {
		tcp.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	g.wg.Wait()
	return nil
}

// respBufs recycles response encode buffers across requests.
var respBufs = sync.Pool{New: func() any { return make([]byte, 0, 512) }}

// serveTCP is the stream accept loop. Transient accept failures
// (EMFILE bursts, aborted handshakes, injected faults) are retried
// after a short pause instead of silently killing the listener — only
// shutdown or a persistent transport error ends the loop.
func (g *Gateway) serveTCP(ln net.Listener) {
	defer g.wg.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Temporary() && !g.isClosed() { //nolint:staticcheck // Temporary is exactly the accept-retry signal
				time.Sleep(10 * time.Millisecond)
				continue
			}
			return
		}
		g.mu.Lock()
		if g.closed {
			g.mu.Unlock()
			c.Close()
			return
		}
		g.conns[c] = struct{}{}
		g.mu.Unlock()
		g.connCount.Add(1)
		g.wg.Add(1)
		go g.serveConn(c)
	}
}

// connReadBuffer is each TCP connection's read buffer: one read syscall
// takes in every pipelined frame that has already arrived, up to this
// many bytes, instead of two syscalls per frame.
const connReadBuffer = 16 << 10

// writeGatherBytes caps the bytes of response frames one socket write
// may carry.
const writeGatherBytes = 64 << 10

// serveConn owns one persistent TCP connection with two goroutines: a
// reader (this one) decoding frames in arrival order, and a writer, the
// sole owner of socket writes, draining the outbound queue out. No
// goroutine waits per request: a watch is submitted with a completion
// that encodes its verdict and queues the frame on out from the lane
// that served it, so a micro-batch's verdicts are all queued before the
// lane moves on. Backpressure is the blocking chain reader → in-flight
// tokens / serve queue → TCP flow control.
//
// Every frame the reader accepts takes one of MaxInflight tokens,
// which its answer holds until the writer has written it (or dropped it
// off a dead connection). out holds MaxInflight frames, so queueing an
// answer never blocks — not the reader, and not a lane running a
// completion — and a client that stops reading stalls only its own
// reader, once its tokens are spent.
//
// Both directions pay one syscall per burst, not per frame. The reader
// decodes out of a connReadBuffer-byte buffer that one read fills with
// whatever the client has pipelined. The writer, having taken one frame
// from the queue, gathers every frame already queued behind it (see
// gatherFrames) and issues one write, so the verdicts of a micro-batch
// leave together. Per connection that is the read buffer plus a write
// buffer that grows to the largest burst gathered — at most
// writeGatherBytes, unless a single frame is larger.
//
// The connection lives under three guards: a read deadline armed before
// every read that can block (idle or half-sent conns are reaped, not
// pinned), a write deadline per write (a client that stops draining is
// reaped once the socket buffers stop absorbing), and a
// malformed-payload budget (framing errors kill the stream outright — a
// byte stream cannot resync).
func (g *Gateway) serveConn(c net.Conn) {
	defer g.wg.Done()
	tokens := make(chan struct{}, g.cfg.MaxInflight)
	out := make(chan []byte, g.cfg.MaxInflight)

	// dead is set once a write fails: nothing more can reach the client,
	// so the reader stops taking frames.
	var dead atomic.Bool
	// reap records this connection as deadline-killed, once, however
	// many of its deadlines fire (reader and writer can both time out).
	var reapedConn atomic.Bool
	reap := func() {
		if reapedConn.CompareAndSwap(false, true) {
			g.reaped.Add(1)
		}
	}

	g.wg.Add(1)
	writerDone := make(chan struct{})
	go func() { // writer: sole owner of conn writes
		defer g.wg.Done()
		defer close(writerDone)
		var (
			wbuf  []byte // the frames of one write
			carry []byte // taken off the queue by the last gather, which had no room for it
		)
		for {
			frame := carry
			if frame == nil {
				var ok bool
				if frame, ok = <-out; !ok {
					return
				}
			}
			var frames int
			wbuf, frames, carry = g.gatherFrames(wbuf[:0], frame, out, writeGatherBytes)
			if !dead.Load() {
				if g.cfg.WriteTimeout > 0 {
					c.SetWriteDeadline(time.Now().Add(g.cfg.WriteTimeout))
				}
				if _, err := c.Write(wbuf); err == nil {
					g.responded.Add(uint64(frames))
					g.writes.Add(1)
				} else {
					// A failed stream write is terminal: mark the conn
					// dead, so the reader takes no further frame, and
					// close it, so a reader blocked in a read returns;
					// then keep draining the queue — and handing back
					// tokens — so the reader's teardown wait ends.
					dead.Store(true)
					var ne net.Error
					if errors.As(err, &ne) && ne.Timeout() {
						reap()
					}
					c.Close()
				}
			}
			for range frames {
				<-tokens
			}
		}
	}()

	badFrames := 0
	br := bufio.NewReaderSize(c, connReadBuffer)
	buf := make([]byte, 0, 4096)
readLoop:
	for !dead.Load() {
		if g.cfg.ReadIdleTimeout > 0 && !frameBuffered(br) {
			c.SetReadDeadline(time.Now().Add(g.cfg.ReadIdleTimeout))
		}
		h, payload, err := ReadFrame(br, buf)
		if err != nil {
			// A malformed header is an unresyncable stream — count it
			// and kill the connection. A deadline firing here is the
			// idle/half-frame reap. Hangups and transport errors just
			// end the connection.
			if errors.Is(err, ErrMalformed) {
				g.malformed.Add(1)
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				reap()
			}
			break
		}
		buf = payload[:0]
		g.received.Add(1)
		// The frame's one answer holds this token until it is written.
		tokens <- struct{}{}
		// overBudget charges one malformed-but-framed payload against the
		// connection and reports when its budget is spent.
		overBudget := func() bool {
			g.malformed.Add(1)
			badFrames++
			return g.cfg.MalformedBudget > 0 && badFrames >= g.cfg.MalformedBudget
		}
		switch h.Type {
		case TypePing:
			out <- AppendPong(g.getBuf(), h.ID)
		case TypeStatsReq:
			frame, bad := g.handleStats(h.ID, payload)
			out <- frame
			if bad && overBudget() {
				g.overBudget.Add(1)
				break readLoop
			}
		case TypeLearnReq:
			frame, bad := g.handleLearn(h.ID, payload)
			out <- frame
			if bad && overBudget() {
				g.overBudget.Add(1)
				break readLoop
			}
		case TypeWatchReq:
			tenant, shape, data, err := DecodeWatchReq(payload)
			if err != nil {
				out <- AppendErr(g.getBuf(), h.ID, ErrCodeBadRequest, err.Error())
				if overBudget() {
					g.overBudget.Add(1)
					break readLoop
				}
				continue
			}
			lane, err := g.resolve(tenant)
			if err != nil {
				out <- AppendErr(g.getBuf(), h.ID, ErrCodeUnknownTenant, err.Error())
				continue
			}
			id := h.ID
			err = lane.Server().SubmitFunc(nil, tensor.FromSlice(data, shape...), func(v core.Verdict, err error) {
				lane.Release() // the lane stays pinned until its verdict is in
				out <- g.verdictFrame(id, v, err)
			})
			if err != nil {
				lane.Release()
				out <- g.submitErrFrame(id, err)
			}
		default:
			out <- AppendErr(g.getBuf(), h.ID, ErrCodeBadRequest,
				fmt.Sprintf("frame type %d is not a request", h.Type))
		}
	}
	// Teardown: stop reading, and wait until every token is back — then
	// every frame accepted has been written or dropped by a dead writer,
	// the verdicts still being served included (their completions run
	// once served, or failed by a server drain). Closing the socket
	// earlier would discard responses already earned. The wait is
	// bounded: each write carries WriteTimeout, and a gateway-level Close
	// still closes the socket directly.
	awaitTokens(tokens)
	close(out)
	<-writerDone
	g.mu.Lock()
	delete(g.conns, c)
	g.mu.Unlock()
	c.Close()
	g.connCount.Add(^uint64(0))
}

// frameBuffered reports whether br already holds the whole next frame,
// header and payload, so reading it cannot reach the socket. It only
// peeks at what is buffered: a garbage header just reads as "not
// covered" or leaves ReadFrame to reject it.
func frameBuffered(br *bufio.Reader) bool {
	n := br.Buffered()
	if n < HeaderSize {
		return false
	}
	hdr, _ := br.Peek(HeaderSize)
	return uint64(n) >= HeaderSize+uint64(binary.LittleEndian.Uint32(hdr[6:10]))
}

// awaitTokens returns once every token of a full in-flight set is back
// — every answer the set ever admitted has been written or dropped —
// by taking them all. The set is spent afterwards.
func awaitTokens(tokens chan struct{}) {
	for range cap(tokens) {
		tokens <- struct{}{}
	}
}

// gatherFrames appends first, then every frame already queued on out, to
// dst — never blocking, and never growing dst past limit: a frame that
// would not fit comes back as carry, to open the next gather (first is
// always taken, whatever its size). It reports how many frames dst now
// holds; their buffers go back to the pool. A closed out ends the gather
// like an empty one.
func (g *Gateway) gatherFrames(dst, first []byte, out <-chan []byte, limit int) (buf []byte, frames int, carry []byte) {
	buf = append(dst, first...)
	g.putBuf(first)
	frames = 1
	for {
		select {
		case frame, ok := <-out:
			if !ok {
				return buf, frames, nil
			}
			if len(buf)+len(frame) > limit {
				return buf, frames, frame
			}
			buf = append(buf, frame...)
			g.putBuf(frame)
			frames++
		default:
			return buf, frames, nil
		}
	}
}

// --- request handlers ---

// handleLearn decodes a learn request, routes it to its tenant lane,
// validates widths against that tenant's monitor and publishes the
// update through the lane's Learn (serialized, so epoch observation
// order matches publication order — and, for registry lanes, so the
// published epoch lands in the tenant's replication delta log).
// bad reports a payload its codec rejected: the reader counts it and
// charges it against the connection's budget — semantic failures like
// width mismatches are well-formed, not bad.
func (g *Gateway) handleLearn(id uint32, payload []byte) (frame []byte, bad bool) {
	tenant, class, pats, err := DecodeLearnReq(payload)
	if err != nil {
		return AppendErr(g.getBuf(), id, ErrCodeBadRequest, err.Error()), true
	}
	lane, err := g.resolve(tenant)
	if err != nil {
		return AppendErr(g.getBuf(), id, ErrCodeUnknownTenant, err.Error()), false
	}
	defer lane.Release()
	if width := len(lane.Monitor().Neurons()); len(pats[0]) != width {
		return AppendErr(g.getBuf(), id, ErrCodeBadRequest,
			fmt.Sprintf("patterns have %d bits, monitor watches %d neurons", len(pats[0]), width)), false
	}
	epoch, err := lane.Learn(map[int][]core.Pattern{class: pats})
	if err != nil {
		return AppendErr(g.getBuf(), id, ErrCodeBadRequest, err.Error()), false
	}
	return AppendLearnResp(g.getBuf(), id, epoch, len(pats)), false
}

// handleStats decodes a stats request and answers with the addressed
// tenant's counter block merged with the gateway's frame accounting.
// bad as in handleLearn.
func (g *Gateway) handleStats(id uint32, payload []byte) (frame []byte, bad bool) {
	tenant, err := DecodeStatsReq(payload)
	if err != nil {
		return AppendErr(g.getBuf(), id, ErrCodeBadRequest, err.Error()), true
	}
	lane, err := g.resolve(tenant)
	if err != nil {
		return AppendErr(g.getBuf(), id, ErrCodeUnknownTenant, err.Error()), false
	}
	defer lane.Release()
	st := StatsFromServe(lane.Server().Stats())
	st.GwReceived = g.received.Load()
	st.GwMalformed = g.malformed.Load()
	st.GwConns = uint32(g.connCount.Load())
	st.Tenant = tenant
	st.Tenants = uint32(g.tenants())
	return AppendStatsResp(g.getBuf(), id, st), false
}

// verdictFrame encodes the outcome of one watch request: its verdict,
// or the error frame for a request the server failed.
func (g *Gateway) verdictFrame(id uint32, v core.Verdict, err error) []byte {
	if err != nil {
		return AppendErr(g.getBuf(), id, ErrCodeShutdown, err.Error())
	}
	frame, err := AppendWatchResp(g.getBuf(), id, v)
	if err != nil {
		frame = AppendErr(frame, id, ErrCodeInternal, err.Error())
	}
	return frame
}

// submitErrFrame maps a SubmitFunc error to its wire error code.
func (g *Gateway) submitErrFrame(id uint32, err error) []byte {
	code := ErrCodeBadRequest
	if errors.Is(err, serve.ErrServerClosed) {
		code = ErrCodeShutdown
	}
	return AppendErr(g.getBuf(), id, code, err.Error())
}

// RegisterMetrics exposes the gateway's frame accounting on reg under
// the napmon_gateway_ namespace, as scrape-time callbacks over the
// counters the connection loops already maintain. Call once per
// registry; pair with the tenant registry's RegisterMetrics on the same
// registry for the full serving picture.
func (g *Gateway) RegisterMetrics(reg *obs.Registry) {
	reg.CounterFunc("napmon_gateway_frames_received_total",
		"frames accepted past stream header validation",
		func() uint64 { return g.received.Load() })
	reg.CounterFunc("napmon_gateway_frames_responded_total",
		"response frames successfully handed to a socket",
		func() uint64 { return g.responded.Load() })
	reg.CounterFunc("napmon_gateway_tcp_writes_total",
		"TCP socket writes, each carrying every response frame queued on its connection",
		func() uint64 { return g.writes.Load() })
	reg.CounterFunc("napmon_gateway_frames_malformed_total",
		"stream headers or payloads rejected as malformed",
		func() uint64 { return g.malformed.Load() })
	reg.CounterFunc("napmon_gateway_conns_reaped_total",
		"TCP connections torn down by a read-idle or write deadline",
		func() uint64 { return g.reaped.Load() })
	reg.CounterFunc("napmon_gateway_conns_overbudget_total",
		"TCP connections torn down for exhausting their malformed-frame budget",
		func() uint64 { return g.overBudget.Load() })
	reg.GaugeFunc("napmon_gateway_tcp_conns",
		"live TCP connections",
		func() float64 { return float64(g.connCount.Load()) })
}

func (g *Gateway) getBuf() []byte { return respBufs.Get().([]byte)[:0] }

// maxPooledBuf is the largest response buffer putBuf returns to the
// pool; a rarer, larger one is left to the collector.
const maxPooledBuf = 65507

func (g *Gateway) putBuf(b []byte) {
	if cap(b) <= maxPooledBuf {
		respBufs.Put(b[:0]) //nolint:staticcheck // slice header allocation is amortized by reuse
	}
}
