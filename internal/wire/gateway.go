package wire

import (
	"bufio"
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
	// MaxInflight bounds the watch requests a single TCP connection may
	// have outstanding (submitted, verdict pending) before its reader
	// stalls, and the total outstanding datagram requests of the UDP
	// listener before new ones are shed (default 1024). Together with
	// the serve queue it bounds gateway memory no matter how hard
	// clients push.
	MaxInflight int
	// WriteQueue is the per-TCP-connection outbound frame queue depth
	// (default 256). A full queue stalls the producing goroutines — the
	// slow-consumer case degrades that one connection, not the server.
	WriteQueue int
	// ReadIdleTimeout bounds the silence between a TCP client's frames
	// (default 30s, negative disables): the reader arms a read deadline
	// before every frame, so a conn that stalls mid-header or goes mute
	// is reaped (Counters.Reaped) instead of pinning its goroutines
	// forever. Clients only waiting on in-flight verdicts still count as
	// idle — pipeline or ping within the window to stay alive.
	ReadIdleTimeout time.Duration
	// WriteTimeout bounds each response write — one frame, or the burst
	// of queued frames the writer gathered into it (default 10s,
	// negative disables). A client that stops draining its socket beyond
	// what the write queue absorbs fails the write; the connection is
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
	if c.WriteQueue == 0 {
		c.WriteQueue = 256
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
	// Received counts frames accepted past the packet filter / stream
	// header validation, across both transports.
	Received uint64
	// Responded counts response frames successfully handed to a socket.
	// A frame is counted after its write returns, so while connections
	// are live the count may trail what a client has already read; it is
	// exact once Close has returned (Close waits for every writer).
	Responded uint64
	// Malformed counts datagrams the packet filter rejected, stream
	// frames with invalid headers (those also kill their connection —
	// a byte stream cannot resync), and well-framed requests whose
	// payload failed its codec.
	Malformed uint64
	// Dropped counts watch requests shed under pressure: serve-queue
	// full (UDP only — TCP blocks instead) or the UDP in-flight cap.
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
// ResolveTenant is pinned — the gateway calls Release exactly once when
// the frame's work is done, so a fleet registry can drain an unloading
// tenant without killing the frame's in-flight batch. registry.Tenant
// implements it structurally.
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

// Gateway serves the binary wire protocol over UDP datagrams and
// persistent TCP streams, routing each frame by its tenant id to one
// serving lane and feeding that lane's micro-batching coalescer.
//
// Backpressure is transport-shaped. A TCP connection's reader submits
// with the blocking Submit and bounds its outstanding responses with a
// per-connection in-flight cap, so a server at capacity simply stops
// reading that socket and TCP flow control pushes back to the client —
// connection-level backpressure, no frame ever dropped. The UDP loop
// has no connection to stall, so it uses the non-blocking TrySubmit and
// sheds: queue-full or cap-full requests get a TypeErr/ErrCodeOverloaded
// reply and a Dropped tick.
//
// Responses carry the request's frame id and may be written out of
// order; pipelining clients match on id.
type Gateway struct {
	resolve TenantResolver
	tenants func() int
	cfg     GatewayConfig

	udp *net.UDPConn
	tcp net.Listener

	udpTokens chan struct{} // UDP outstanding-request cap

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	wg sync.WaitGroup // listener loops, conn readers/writers, responders

	received   atomic.Uint64
	responded  atomic.Uint64
	malformed  atomic.Uint64
	dropped    atomic.Uint64
	reaped     atomic.Uint64
	overBudget atomic.Uint64
	connCount  atomic.Uint64
}

// NewGateway wraps a running serve.Server (and the monitor it serves —
// the learn path and the stats epoch come from it) in a single-tenant
// protocol gateway: only the default tenant id (0) routes; every other
// id answers ErrCodeUnknownTenant. Call ListenUDP/ListenTCP to bind
// transports, Close to stop.
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
		resolve:   resolve,
		tenants:   count,
		cfg:       cfg.withDefaults(),
		udpTokens: make(chan struct{}, cfg.withDefaults().MaxInflight),
		conns:     make(map[net.Conn]struct{}),
	}
}

// Counters returns a snapshot of the gateway's frame accounting.
func (g *Gateway) Counters() GatewayCounters {
	return GatewayCounters{
		Received:   g.received.Load(),
		Responded:  g.responded.Load(),
		Malformed:  g.malformed.Load(),
		Dropped:    g.dropped.Load(),
		Reaped:     g.reaped.Load(),
		OverBudget: g.overBudget.Load(),
		Conns:      g.connCount.Load(),
	}
}

// ListenUDP binds the datagram transport and starts its read loop.
func (g *Gateway) ListenUDP(addr string) error {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("wire: resolve udp %q: %w", addr, err)
	}
	pc, err := net.ListenUDP("udp", ua)
	if err != nil {
		return err
	}
	// Requests burst in faster than inference drains them and responses
	// burst out at micro-batch boundaries; default-sized socket buffers
	// drop datagrams under both. Best-effort — the kernel clamps to its
	// configured max.
	pc.SetReadBuffer(4 << 20)
	pc.SetWriteBuffer(4 << 20)
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		pc.Close()
		return errors.New("wire: gateway closed")
	}
	g.udp = pc
	g.mu.Unlock()
	g.wg.Add(1)
	go g.serveUDP(pc)
	return nil
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

// isClosed reports whether Close has begun — the accept and UDP read
// loops use it to tell a shutdown from a transient transport error.
func (g *Gateway) isClosed() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.closed
}

// UDPAddr returns the bound UDP address (nil before ListenUDP).
func (g *Gateway) UDPAddr() net.Addr {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.udp == nil {
		return nil
	}
	return g.udp.LocalAddr()
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
// for all gateway goroutines to exit. It does not shut down the
// serve.Server behind the gateway — pending futures still resolve
// (their responses go nowhere once the sockets are gone). Close the
// gateway before draining the server so in-flight verdicts can still
// be delivered.
func (g *Gateway) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		g.wg.Wait()
		return nil
	}
	g.closed = true
	udp, tcp := g.udp, g.tcp
	conns := make([]net.Conn, 0, len(g.conns))
	for c := range g.conns {
		conns = append(conns, c)
	}
	g.mu.Unlock()
	if udp != nil {
		udp.Close()
	}
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

// --- UDP ---

// serveUDP is the datagram read loop: filter, decode, dispatch. One
// goroutine owns the reads; watch verdicts are awaited and written back
// by short-lived responder goroutines bounded by udpTokens.
func (g *Gateway) serveUDP(pc *net.UDPConn) {
	defer g.wg.Done()
	buf := make([]byte, MaxUDPFrame)
	for {
		n, raddr, err := pc.ReadFromUDP(buf)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Temporary() && !g.isClosed() { //nolint:staticcheck // transient datagram errors shouldn't kill the listener
				continue
			}
			return // closed (or unrecoverable): the loop owns no other state
		}
		pkt := buf[:n]
		if !BasicPacketFilter(pkt) {
			g.malformed.Add(1)
			continue
		}
		g.received.Add(1)
		h, _ := ParseHeader(pkt)
		payload := pkt[HeaderSize:]
		switch h.Type {
		case TypePing:
			g.writeUDP(pc, raddr, AppendPong(g.getBuf(), h.ID))
		case TypeStatsReq:
			frame, bad := g.handleStats(h.ID, payload)
			if bad {
				g.malformed.Add(1)
			}
			g.writeUDP(pc, raddr, frame)
		case TypeLearnReq:
			frame, bad := g.handleLearn(h.ID, payload)
			if bad {
				g.malformed.Add(1)
			}
			g.writeUDP(pc, raddr, frame)
		case TypeWatchReq:
			g.handleWatchUDP(pc, raddr, h.ID, payload)
		default:
			// A response type arriving at a server: answer with an error
			// rather than silently eating it, so a misconfigured peer
			// finds out.
			g.writeUDP(pc, raddr, AppendErr(g.getBuf(), h.ID, ErrCodeBadRequest,
				fmt.Sprintf("frame type %d is not a request", h.Type)))
		}
	}
}

// handleWatchUDP decodes and submits one datagram watch request. The
// read loop must never block on the serve queue (one stalled client
// would stall every client), so pressure turns into shedding here:
// no in-flight token or TrySubmit queue-full → ErrCodeOverloaded.
func (g *Gateway) handleWatchUDP(pc *net.UDPConn, raddr *net.UDPAddr, id uint32, payload []byte) {
	tenant, shape, data, err := DecodeWatchReq(payload)
	if err != nil {
		g.malformed.Add(1)
		g.writeUDP(pc, raddr, AppendErr(g.getBuf(), id, ErrCodeBadRequest, err.Error()))
		return
	}
	lane, err := g.resolve(tenant)
	if err != nil {
		g.writeUDP(pc, raddr, AppendErr(g.getBuf(), id, ErrCodeUnknownTenant, err.Error()))
		return
	}
	select {
	case g.udpTokens <- struct{}{}:
	default:
		lane.Release()
		g.dropped.Add(1)
		g.writeUDP(pc, raddr, AppendErr(g.getBuf(), id, ErrCodeOverloaded, "gateway at in-flight cap"))
		return
	}
	fut, err := lane.Server().TrySubmit(tensor.FromSlice(data, shape...))
	if err != nil {
		<-g.udpTokens
		lane.Release()
		g.writeUDP(pc, raddr, g.submitErrFrame(id, err))
		return
	}
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		defer func() { <-g.udpTokens }()
		defer lane.Release() // lane stays pinned until the verdict is out
		v, err := fut.Wait()
		if err != nil {
			g.writeUDP(pc, raddr, AppendErr(g.getBuf(), id, ErrCodeShutdown, err.Error()))
			return
		}
		frame, err := AppendWatchResp(g.getBuf(), id, v)
		if err != nil {
			frame = AppendErr(frame, id, ErrCodeInternal, err.Error())
		}
		g.writeUDP(pc, raddr, frame)
	}()
}

// writeUDP sends one response datagram and returns the frame buffer to
// the pool. UDPConn writes are goroutine-safe; send failures are
// dropped on the floor like any datagram.
func (g *Gateway) writeUDP(pc *net.UDPConn, raddr *net.UDPAddr, frame []byte) {
	if _, err := pc.WriteToUDP(frame, raddr); err == nil {
		g.responded.Add(1)
	}
	g.putBuf(frame)
}

// --- TCP ---

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

// serveConn owns one persistent TCP connection: a reader goroutine
// (this one) decoding frames in arrival order, a writer goroutine
// draining the outbound queue, and one short-lived goroutine per
// in-flight watch awaiting its future. Backpressure is the blocking
// chain reader → inflight cap / serve queue → TCP flow control.
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
// every frame (idle or half-sent conns are reaped, not pinned), a write
// deadline per write (a client that stops draining is reaped once the
// write queue stops absorbing), and a malformed-payload budget (framing
// errors kill the stream outright — a byte stream cannot resync).
func (g *Gateway) serveConn(c net.Conn) {
	defer g.wg.Done()
	out := make(chan []byte, g.cfg.WriteQueue)
	inflight := make(chan struct{}, g.cfg.MaxInflight)
	var pending sync.WaitGroup

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
			dead  bool
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
			if dead {
				continue
			}
			if g.cfg.WriteTimeout > 0 {
				c.SetWriteDeadline(time.Now().Add(g.cfg.WriteTimeout))
			}
			if _, err := c.Write(wbuf); err == nil {
				g.responded.Add(uint64(frames))
			} else {
				// A failed stream write is terminal: close the conn so
				// the reader unblocks, then keep draining the queue so
				// producers never block on a dead connection.
				dead = true
				var ne net.Error
				if errors.As(err, &ne) && ne.Timeout() {
					reap()
				}
				c.Close()
			}
		}
	}()

	badFrames := 0
	br := bufio.NewReaderSize(c, connReadBuffer)
	buf := make([]byte, 0, 4096)
readLoop:
	for {
		if g.cfg.ReadIdleTimeout > 0 {
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
			inflight <- struct{}{} // connection-level backpressure, cap in-flight
			fut, err := lane.Server().Submit(tensor.FromSlice(data, shape...))
			if err != nil {
				<-inflight
				lane.Release()
				out <- g.submitErrFrame(h.ID, err)
				continue
			}
			pending.Add(1)
			go func(id uint32) {
				defer pending.Done()
				defer func() { <-inflight }()
				defer lane.Release() // lane stays pinned until the verdict is out
				v, err := fut.Wait()
				if err != nil {
					out <- AppendErr(g.getBuf(), id, ErrCodeShutdown, err.Error())
					return
				}
				frame, err := AppendWatchResp(g.getBuf(), id, v)
				if err != nil {
					frame = AppendErr(frame, id, ErrCodeInternal, err.Error())
				}
				out <- frame
			}(h.ID)
		default:
			out <- AppendErr(g.getBuf(), h.ID, ErrCodeBadRequest,
				fmt.Sprintf("frame type %d is not a request", h.Type))
		}
	}
	// Teardown: stop reading, let every in-flight verdict flush (their
	// futures resolve once served — or failed by a server drain), wait
	// for the writer to drain the queue — closing the socket under it
	// would discard responses already earned — then release the
	// connection. The wait is bounded: each write carries WriteTimeout,
	// and a gateway-level Close still closes the socket directly.
	pending.Wait()
	close(out)
	<-writerDone
	g.mu.Lock()
	delete(g.conns, c)
	g.mu.Unlock()
	c.Close()
	g.connCount.Add(^uint64(0))
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

// --- shared handlers ---

// handleLearn decodes a learn request, routes it to its tenant lane,
// validates widths against that tenant's monitor and publishes the
// update through the lane's Learn (serialized, so epoch observation
// order matches publication order — and, for registry lanes, so the
// published epoch lands in the tenant's replication delta log).
// bad reports a payload its codec rejected: the transports count it
// (and the TCP reader charges it against the connection's budget) —
// semantic failures like width mismatches are well-formed, not bad.
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
	st.GwDropped = g.dropped.Load()
	st.GwConns = uint32(g.connCount.Load())
	st.Tenant = tenant
	st.Tenants = uint32(g.tenants())
	return AppendStatsResp(g.getBuf(), id, st), false
}

// submitErrFrame maps a Submit/TrySubmit error to its wire error code.
func (g *Gateway) submitErrFrame(id uint32, err error) []byte {
	code := ErrCodeBadRequest
	switch {
	case errors.Is(err, serve.ErrServerClosed):
		code = ErrCodeShutdown
	case errors.Is(err, serve.ErrQueueFull):
		g.dropped.Add(1)
		code = ErrCodeOverloaded
	}
	return AppendErr(g.getBuf(), id, code, err.Error())
}

// RegisterMetrics exposes the gateway's frame accounting on reg under
// the napmon_gateway_ namespace, as scrape-time callbacks over the
// counters the transport loops already maintain. Call once per
// registry; pair with Server.RegisterMetrics on the same registry for
// the full serving picture.
func (g *Gateway) RegisterMetrics(reg *obs.Registry) {
	reg.CounterFunc("napmon_gateway_frames_received_total",
		"frames accepted past the packet filter / stream header validation",
		func() uint64 { return g.received.Load() })
	reg.CounterFunc("napmon_gateway_frames_responded_total",
		"response frames successfully handed to a socket",
		func() uint64 { return g.responded.Load() })
	reg.CounterFunc("napmon_gateway_frames_malformed_total",
		"datagrams, stream headers or payloads rejected as malformed",
		func() uint64 { return g.malformed.Load() })
	reg.CounterFunc("napmon_gateway_frames_dropped_total",
		"watch requests shed under pressure (queue full or in-flight cap)",
		func() uint64 { return g.dropped.Load() })
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

func (g *Gateway) putBuf(b []byte) {
	if cap(b) <= MaxUDPFrame {
		respBufs.Put(b[:0]) //nolint:staticcheck // slice header allocation is amortized by reuse
	}
}
