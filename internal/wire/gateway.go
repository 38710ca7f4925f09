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
	// whichever goroutine does it. For the UDP listener it bounds the
	// outstanding watch requests before new ones are shed. Together
	// with the serve queue it bounds gateway memory no matter how hard
	// clients push.
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
	// Received counts frames accepted past the packet filter / stream
	// header validation, across both transports.
	Received uint64
	// Responded counts response frames successfully handed to a socket.
	// A frame is counted after its write returns, so while connections
	// are live the count may trail what a client has already read; it is
	// exact once Close has returned (Close waits for every writer).
	Responded uint64
	// Writes counts TCP socket writes that succeeded; each carries every
	// response frame its connection's writer found queued, so
	// Responded/Writes over TCP-only traffic is frames per write.
	Writes uint64
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

// Gateway serves the binary wire protocol over UDP datagrams and
// persistent TCP streams, routing each frame by its tenant id to one
// serving lane and feeding that lane's micro-batching coalescer.
//
// Backpressure is transport-shaped. A TCP connection's reader submits
// with the blocking SubmitFunc and bounds its unwritten answers with a
// per-connection in-flight cap, so a server at capacity simply stops
// reading that socket and TCP flow control pushes back to the client —
// connection-level backpressure, no frame ever dropped. The UDP loop
// has no connection to stall, so it uses the non-blocking TrySubmitFunc
// and sheds: queue-full or cap-full requests get a
// TypeErr/ErrCodeOverloaded reply and a Dropped tick. On both
// transports a watch verdict goes from the lane that served it straight
// onto an outbound queue: no goroutine waits per request.
//
// Responses carry the request's frame id and may be written out of
// order; pipelining clients match on id.
type Gateway struct {
	resolve TenantResolver
	tenants func() int
	cfg     GatewayConfig

	udp *net.UDPConn
	tcp net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	wg sync.WaitGroup // listener loops and conn readers/writers

	received   atomic.Uint64
	responded  atomic.Uint64
	writes     atomic.Uint64
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

// udpReply is one datagram on its way out: the frame and its peer.
type udpReply struct {
	addr  *net.UDPAddr
	frame []byte
}

// udpListener is one bound datagram socket's verdict path. The read
// loop takes one of tokens per accepted watch request; the request's
// completion, running on the lane that served it, queues the verdict on
// out (which holds as many replies as there are tokens, so it never
// blocks), and the listener's one sender goroutine writes it and hands
// the token back.
type udpListener struct {
	pc     *net.UDPConn
	tokens chan struct{}
	out    chan udpReply
}

// serveUDP is the datagram read loop: filter, decode, dispatch. One
// goroutine owns the reads and answers everything but watch verdicts
// itself; verdicts leave through the listener's sender. On Close the
// loop returns only after every accepted watch request has been
// answered or failed and the sender has exited.
func (g *Gateway) serveUDP(pc *net.UDPConn) {
	defer g.wg.Done()
	l := &udpListener{
		pc:     pc,
		tokens: make(chan struct{}, g.cfg.MaxInflight),
		out:    make(chan udpReply, g.cfg.MaxInflight),
	}
	senderDone := make(chan struct{})
	go func() {
		defer close(senderDone)
		for r := range l.out {
			g.writeUDP(pc, r.addr, r.frame)
			<-l.tokens
		}
	}()
	defer func() {
		awaitTokens(l.tokens)
		close(l.out)
		<-senderDone
	}()
	buf := make([]byte, MaxUDPFrame)
	for {
		n, raddr, err := pc.ReadFromUDP(buf)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Temporary() && !g.isClosed() { //nolint:staticcheck // transient datagram errors shouldn't kill the listener
				continue
			}
			return // closed (or unrecoverable)
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
			g.handleWatchUDP(l, raddr, h.ID, payload)
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
// no in-flight token or TrySubmitFunc queue-full → ErrCodeOverloaded.
func (g *Gateway) handleWatchUDP(l *udpListener, raddr *net.UDPAddr, id uint32, payload []byte) {
	tenant, shape, data, err := DecodeWatchReq(payload)
	if err != nil {
		g.malformed.Add(1)
		g.writeUDP(l.pc, raddr, AppendErr(g.getBuf(), id, ErrCodeBadRequest, err.Error()))
		return
	}
	lane, err := g.resolve(tenant)
	if err != nil {
		g.writeUDP(l.pc, raddr, AppendErr(g.getBuf(), id, ErrCodeUnknownTenant, err.Error()))
		return
	}
	select {
	case l.tokens <- struct{}{}:
	default:
		lane.Release()
		g.dropped.Add(1)
		g.writeUDP(l.pc, raddr, AppendErr(g.getBuf(), id, ErrCodeOverloaded, "gateway at in-flight cap"))
		return
	}
	err = lane.Server().TrySubmitFunc(tensor.FromSlice(data, shape...), func(v core.Verdict, err error) {
		lane.Release() // the lane stays pinned until its verdict is in
		l.out <- udpReply{addr: raddr, frame: g.verdictFrame(id, v, err)}
	})
	if err != nil {
		<-l.tokens
		lane.Release()
		g.writeUDP(l.pc, raddr, g.submitErrFrame(id, err))
	}
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

// submitErrFrame maps a SubmitFunc/TrySubmitFunc error to its wire error code.
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
// registry; pair with the tenant registry's RegisterMetrics on the same
// registry for the full serving picture.
func (g *Gateway) RegisterMetrics(reg *obs.Registry) {
	reg.CounterFunc("napmon_gateway_frames_received_total",
		"frames accepted past the packet filter / stream header validation",
		func() uint64 { return g.received.Load() })
	reg.CounterFunc("napmon_gateway_frames_responded_total",
		"response frames successfully handed to a socket",
		func() uint64 { return g.responded.Load() })
	reg.CounterFunc("napmon_gateway_tcp_writes_total",
		"TCP socket writes, each carrying every response frame queued on its connection",
		func() uint64 { return g.writes.Load() })
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
