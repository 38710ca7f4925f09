// Command napmon-soak is the load generator for the wire plane of
// cmd/napmon-serve (its -udp / -tcp listeners): it hammers the gateway
// with wire-protocol watch requests over UDP or TCP for a fixed
// duration and reports throughput and latency percentiles as JSON.
//
// Two pacing modes:
//
//   - Open loop (-rate N): frames are sent on a fixed schedule, N per
//     second split across -conns workers, regardless of how fast
//     responses come back. This is the honest way to measure a server
//     under overload — a closed loop slows down with the server and
//     hides queueing delay (coordinated omission).
//   - Closed loop (-rate 0, default): each worker keeps -window
//     requests outstanding and sends the next as responses arrive.
//     This measures saturated throughput.
//
// Every response is matched to its request by frame id, so the report
// also counts frames that never came back (dropped), responses that
// fail the packet filter or decoder (malformed), overload shed replies
// (overloaded — error frames with code 3), and other protocol-level
// error frames (server_errors). With -strict, any of those makes the
// process exit 1 — this is the CI soak gate.
//
// -metrics URL points at the daemon's GET /metrics (its HTTP -addr). The
// soak scrapes it before and after the run and cross-checks the
// server-side deltas against its own per-frame accounting: requests the
// server says it served must equal watch responses this client
// received, and gateway-reported sheds must equal the overload error
// frames it got back. A mismatch means lost or double-counted frames
// somewhere between the serving lanes and this socket; it is printed in
// the report and fails -strict.
//
// Against a fault-injected gateway (the chaos boot of `make smoke`) two
// extra flags apply. -reconnect turns a mid-run connection death into a
// re-dial instead of a fatal error: the worker counts it in conn_errors,
// abandons that connection's unanswered sends as drops, and carries on
// with fresh pacing state. -chaos-check swaps -strict's closed
// accounting for the invariants that survive injected resets and
// corruption: responses were received at all, every received response
// decoded to a valid verdict, and (with -metrics) the client never
// received more verdicts than the server served.
//
// Usage:
//
//	napmon-soak -addr 127.0.0.1:9710 -proto udp -duration 10s [-rate 0]
//	            [-conns 4] [-window 32] [-shape 1,28,28] [-o soak.json]
//	            [-metrics http://127.0.0.1:9712/metrics] [-strict]
//	            [-reconnect] [-chaos-check]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"napmon/internal/exp"
	"napmon/internal/obs"
	"napmon/internal/rng"
	"napmon/internal/wire"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("napmon-soak: ")
	var (
		addr      = flag.String("addr", "127.0.0.1:9710", "gateway address")
		proto     = flag.String("proto", "udp", "transport: udp or tcp")
		duration  = flag.Duration("duration", 10*time.Second, "send for this long")
		rate      = flag.Float64("rate", 0, "open-loop request rate per second across all conns (0 = closed loop)")
		conns     = flag.Int("conns", 4, "concurrent connections (TCP) or sockets (UDP)")
		window    = flag.Int("window", 32, "closed-loop outstanding requests per conn; UDP shed-retry cap")
		shapeFlag = flag.String("shape", "", "input tensor shape to send (default: per -dataset)")
		ds        = flag.String("dataset", "mnist", "dataset whose native shape to send when -shape is empty")
		seed      = flag.Uint64("seed", 1, "input generator seed")
		out       = flag.String("o", "", "write the JSON report here (default stdout)")
		metricsU  = flag.String("metrics", "", "napmon-serve /metrics URL to scrape before and after for server-side accounting (empty = off)")
		strict    = flag.Bool("strict", false, "exit 1 on any dropped, malformed, or error-frame response, or a server-vs-client accounting mismatch")
		probeWait = flag.Duration("connect-timeout", 10*time.Second, "budget for the initial ping probe")
		grace     = flag.Duration("grace", 2*time.Second, "wait this long after the send window for stragglers")

		reconnect  = flag.Bool("reconnect", false, "re-dial and keep going when a connection dies mid-run (for fault-injected gateways); transport failures are counted in conn_errors, not fatal")
		chaosCheck = flag.Bool("chaos-check", false, "exit 1 unless the run upholds the chaos invariants: responses were received, every received response decoded to a valid verdict, and (with -metrics) the client never received more than the server served")
	)
	flag.Parse()
	if *proto != "udp" && *proto != "tcp" {
		log.Fatalf("unknown -proto %q (want udp or tcp)", *proto)
	}
	if *conns < 1 || *window < 1 {
		log.Fatal("-conns and -window must be >= 1")
	}
	shape, err := exp.InputShape(*shapeFlag, *ds)
	if err != nil {
		log.Fatal(err)
	}

	if err := probe(*proto, *addr, *probeWait); err != nil {
		log.Fatalf("gateway probe failed: %v", err)
	}

	var before *serverSample
	if *metricsU != "" {
		s, err := scrape(*metricsU)
		if err != nil {
			log.Fatalf("pre-run metrics scrape: %v", err)
		}
		before = s
	}

	workers := make([]*worker, *conns)
	var wg sync.WaitGroup
	for i := range workers {
		w := newWorker(i, *proto, *addr, shape, *seed+uint64(i)*1e6, *window, *reconnect)
		workers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(*duration, *rate/float64(*conns), *grace)
		}()
	}
	wg.Wait()

	// Throughput is measured over the send window (the longest worker's
	// dial-to-last-send span), not the straggler grace period — grace
	// only decides what counts as dropped.
	var elapsed time.Duration
	rep := report{Proto: *proto, Conns: *conns, Window: *window, Rate: *rate}
	var lat []time.Duration
	for _, w := range workers {
		if w.err != nil {
			log.Fatalf("conn %d: %v", w.id, w.err)
		}
		if w.sendElapsed > elapsed {
			elapsed = w.sendElapsed
		}
		rep.Sent += w.sent
		rep.Received += w.received
		rep.Malformed += w.malformed
		rep.Overloaded += w.overloaded
		rep.ServerErrors += w.serverErrors
		rep.ConnErrors += w.connErrors
		rep.Dropped += uint64(len(w.pending))
		lat = append(lat, w.lat...)
	}
	rep.DurationS = elapsed.Seconds()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	q := func(p float64) time.Duration {
		if len(lat) == 0 {
			return 0
		}
		i := int(p * float64(len(lat)))
		if i >= len(lat) {
			i = len(lat) - 1
		}
		return lat[i]
	}
	rep.ThroughputRPS = float64(rep.Received) / elapsed.Seconds()
	rep.P50Ns, rep.P99Ns, rep.P999Ns = q(0.50).Nanoseconds(), q(0.99).Nanoseconds(), q(0.999).Nanoseconds()
	rep.P50, rep.P99, rep.P999 = q(0.50).String(), q(0.99).String(), q(0.999).String()

	if before != nil {
		after, err := scrape(*metricsU)
		if err != nil {
			log.Fatalf("post-run metrics scrape: %v", err)
		}
		rep.Server = &serverSide{
			ServedDelta:    after.served - before.served,
			ShedDelta:      after.shed - before.shed,
			GwDroppedDelta: after.gwDropped - before.gwDropped,
		}
	}
	mismatches, failures := judge(rep, *strict, *chaosCheck)
	for _, m := range mismatches {
		log.Printf("accounting mismatch: %s", m)
	}
	if rep.Server != nil {
		rep.Server.ConsistentWithClient = len(mismatches) == 0
	}

	enc, _ := json.MarshalIndent(rep, "", "  ")
	enc = append(enc, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			log.Fatal(err)
		}
	}
	os.Stdout.Write(enc)

	for _, f := range failures {
		log.Print(f)
	}
	if len(failures) > 0 {
		os.Exit(1)
	}
	if *chaosCheck {
		log.Printf("chaos-check ok: %d verdicts received, 0 malformed, %d connection failures survived",
			rep.Received, rep.ConnErrors)
	}
}

// judge is the run's verdict, a pure function of its report. mismatches
// lists where the server's /metrics deltas disagree with this client's
// per-frame accounting (checked only when rep.Server is set): every
// request the server counts as served must have come back as a watch
// response, and every gateway shed as an overload error frame — which
// holds when this soak is the gateway's sole client, as in CI. failures
// lists why the run fails the gates it was asked for; none means exit 0.
//
// -strict demands closed accounting: nothing dropped, malformed, shed or
// errored, and no mismatch. -chaos-check cannot — injected resets
// legitimately lose responses and corrupted requests legitimately earn
// error frames — so it demands what must still hold: the service did real
// work (responses came back), every response that did come back decoded
// to a valid verdict, and the client never received more verdicts than
// the server claims it served (phantom responses).
func judge(rep report, strict, chaosCheck bool) (mismatches, failures []string) {
	if sv := rep.Server; sv != nil {
		if sv.ServedDelta != rep.Received {
			mismatches = append(mismatches, fmt.Sprintf("server served %d, client received %d",
				sv.ServedDelta, rep.Received))
		}
		if sv.GwDroppedDelta != rep.Overloaded {
			mismatches = append(mismatches, fmt.Sprintf("gateway shed %d, client saw %d overload frames",
				sv.GwDroppedDelta, rep.Overloaded))
		}
	}
	if strict && (rep.Dropped > 0 || rep.Malformed > 0 || rep.Overloaded > 0 || rep.ServerErrors > 0 || len(mismatches) > 0) {
		failures = append(failures, fmt.Sprintf("strict: %d dropped, %d malformed, %d overloaded, %d server errors, accounting ok=%v",
			rep.Dropped, rep.Malformed, rep.Overloaded, rep.ServerErrors, len(mismatches) == 0))
	}
	if chaosCheck {
		if rep.Received == 0 {
			failures = append(failures, "chaos-check: no watch responses received — the service did no useful work under faults")
		}
		if rep.Malformed > 0 {
			failures = append(failures, fmt.Sprintf("chaos-check: %d malformed responses — an acknowledged frame carried an unreadable verdict", rep.Malformed))
		}
		if rep.Server != nil && rep.Received > rep.Server.ServedDelta {
			failures = append(failures, fmt.Sprintf("chaos-check: client received %d verdicts but the server only served %d — phantom responses",
				rep.Received, rep.Server.ServedDelta))
		}
	}
	return mismatches, failures
}

// serverSample is one scrape of the counters the accounting check uses.
type serverSample struct {
	served    uint64
	shed      uint64
	gwDropped uint64
}

// scrape fetches and parses a Prometheus exposition, pulling out the
// serve/gateway counters the server-vs-client accounting diff needs.
// The exposition is validated wholesale by the internal parser, so a
// malformed metrics page fails the soak loudly rather than reading as
// zeros.
func scrape(url string) (*serverSample, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	exp, err := obs.ParseExposition(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", url, err)
	}
	s := &serverSample{}
	for _, f := range []struct {
		name string
		dst  *uint64
	}{
		{"napmon_requests_served_total", &s.served},
		{"napmon_requests_shed_total", &s.shed},
		{"napmon_gateway_frames_dropped_total", &s.gwDropped},
	} {
		v, ok := exp.Value(f.name, nil)
		if !ok {
			return nil, fmt.Errorf("%s: series %s missing", url, f.name)
		}
		*f.dst = uint64(v)
	}
	return s, nil
}

// report is the JSON document the soak run emits.
type report struct {
	Proto         string  `json:"proto"`
	Conns         int     `json:"conns"`
	Window        int     `json:"window"`
	Rate          float64 `json:"rate"`
	DurationS     float64 `json:"duration_s"`
	Sent          uint64  `json:"sent"`
	Received      uint64  `json:"received"`
	Dropped       uint64  `json:"dropped"`
	Malformed     uint64  `json:"malformed"`
	Overloaded    uint64  `json:"overloaded"`
	ServerErrors  uint64  `json:"server_errors"`
	ConnErrors    uint64  `json:"conn_errors"`
	ThroughputRPS float64 `json:"throughput_rps"`
	P50Ns         int64   `json:"p50_ns"`
	P99Ns         int64   `json:"p99_ns"`
	P999Ns        int64   `json:"p999_ns"`
	P50           string  `json:"p50"`
	P99           string  `json:"p99"`
	P999          string  `json:"p999"`
	// Server is the /metrics-derived accounting diff; present only when
	// -metrics was given.
	Server *serverSide `json:"server,omitempty"`
}

// serverSide is the server's view of the run, from /metrics deltas.
type serverSide struct {
	ServedDelta          uint64 `json:"served_delta"`
	ShedDelta            uint64 `json:"shed_delta"`
	GwDroppedDelta       uint64 `json:"gw_dropped_delta"`
	ConsistentWithClient bool   `json:"consistent_with_client"`
}

// probe pings the gateway once so a wrong address fails fast with a
// clear message instead of a ten-second soak full of drops.
func probe(proto, addr string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	var lastErr error
	for time.Now().Before(deadline) {
		c, err := net.DialTimeout(proto, addr, time.Second)
		if err != nil {
			lastErr = err
			time.Sleep(100 * time.Millisecond)
			continue
		}
		c.SetDeadline(time.Now().Add(time.Second))
		c.Write(wire.AppendPing(nil, 0))
		var h wire.Header
		if proto == "udp" {
			buf := make([]byte, wire.MaxUDPFrame)
			n, err := c.Read(buf)
			if err == nil && wire.BasicPacketFilter(buf[:n]) {
				h, err = wire.ParseHeader(buf[:n])
			}
			lastErr = err
		} else {
			h, _, lastErr = wire.ReadFrame(c, nil)
		}
		c.Close()
		if lastErr == nil && h.Type == wire.TypePong {
			return nil
		}
		if lastErr == nil {
			lastErr = fmt.Errorf("ping answered with frame type %d", h.Type)
		}
		time.Sleep(100 * time.Millisecond)
	}
	return lastErr
}

// worker owns one connection (TCP) or socket (UDP): a sender paced by
// the chosen mode, a receiver matching responses to send timestamps by
// frame id, and per-conn tallies merged by main after the run.
type worker struct {
	id    int
	proto string
	addr  string
	frame []byte // pre-encoded watch request; id+checksum rewritten per send
	shape []int
	r     *rng.Source

	mu      sync.Mutex
	pending map[uint32]time.Time
	tokens  chan struct{}

	window       int
	reconnect    bool
	sendElapsed  time.Duration
	sent         uint64
	received     uint64
	malformed    uint64
	overloaded   uint64
	serverErrors uint64
	connErrors   uint64
	lat          []time.Duration
	err          error
}

func newWorker(id int, proto, addr string, shape []int, seed uint64, window int, reconnect bool) *worker {
	return &worker{
		id: id, proto: proto, addr: addr, shape: shape,
		r: rng.New(seed), window: window, reconnect: reconnect,
		pending: make(map[uint32]time.Time),
	}
}

// nextFrame encodes a watch request with fresh random input and the
// given id. Inputs vary per frame so zone lookups spread across the
// monitor's classes the way real traffic would.
func (w *worker) nextFrame(id uint32) []byte {
	n := 1
	for _, d := range w.shape {
		n *= d
	}
	in := make([]float64, n)
	for i := range in {
		in[i] = w.r.Float64()
	}
	frame, err := wire.AppendWatchReq(w.frame[:0], id, wire.DefaultTenant, w.shape, in)
	if err != nil {
		panic(err) // shape was validated at startup
	}
	w.frame = frame
	return frame
}

func (w *worker) run(duration time.Duration, rate float64, grace time.Duration) {
	sendStart := time.Now()
	end := sendStart.Add(duration)
	var id uint32
	for {
		redial := w.session(sendStart, end, rate, grace, &id)
		if !redial || !time.Now().Before(end) {
			return
		}
		// Pause briefly so a flapping gateway doesn't turn the dial loop
		// into a connect storm.
		time.Sleep(100 * time.Millisecond)
	}
}

// session owns one connection's lifetime: dial, pace sends until the
// window ends or the transport dies, drain stragglers, tear down. It
// returns true when run should re-dial — -reconnect mode and the
// connection died with send time left. Frame ids continue across
// sessions so late responses from a previous connection can never be
// mistaken for current ones.
func (w *worker) session(sendStart, end time.Time, rate float64, grace time.Duration, id *uint32) bool {
	c, err := net.Dial(w.proto, w.addr)
	if err != nil {
		return w.connFailed(err)
	}
	defer c.Close()
	c.SetDeadline(end.Add(grace + time.Minute))
	if uc, ok := c.(*net.UDPConn); ok {
		// Responses arrive in micro-batch-sized bursts; a default-sized
		// socket buffer overflows under them and every loss leaks a
		// window token. Best-effort — the kernel clamps to its own max.
		uc.SetReadBuffer(4 << 20)
		uc.SetWriteBuffer(4 << 20)
	}

	// tokens caps outstanding requests in closed-loop mode; the receiver
	// refills it. Open loop ignores it and trusts the pacer. Fresh per
	// session: tokens stranded in a dead connection's unanswered sends
	// must not throttle the next session. Published before the receiver
	// starts so its refills see the right channel.
	tokens := make(chan struct{}, w.window)
	for i := 0; i < w.window; i++ {
		tokens <- struct{}{}
	}
	w.mu.Lock()
	w.tokens = tokens
	w.mu.Unlock()

	recvDone := make(chan struct{})
	stopRecv := make(chan struct{})
	connDead := make(chan struct{})
	go func() {
		defer close(recvDone)
		if !w.receive(c, stopRecv) {
			close(connDead)
		}
	}()

	var ticker *time.Ticker
	if rate > 0 {
		ticker = time.NewTicker(time.Duration(float64(time.Second) / rate))
		defer ticker.Stop()
	}
	endTimer := time.NewTimer(time.Until(end))
	defer endTimer.Stop()
	var sessErr error
	died := false
sendLoop:
	for time.Now().Before(end) {
		if ticker != nil {
			select {
			case <-ticker.C:
			case <-connDead:
				died = true
				break sendLoop
			}
		} else {
			// A lost response (UDP) permanently leaks its window token, so
			// the wait must not outlive the send window — losing the whole
			// window stalls this worker for the rest of the run (reported
			// as drops), never hangs it.
			select {
			case <-tokens:
			case <-endTimer.C:
				continue
			case <-connDead:
				died = true
				break sendLoop
			}
		}
		frame := w.nextFrame(*id)
		w.mu.Lock()
		w.pending[*id] = time.Now()
		w.mu.Unlock()
		if _, err := c.Write(frame); err != nil {
			sessErr = err
			died = true
			break
		}
		w.sent++
		*id++
	}
	if se := time.Since(sendStart); se > w.sendElapsed {
		w.sendElapsed = se
	}
	select {
	case <-connDead:
		died = true
	default:
	}

	if !died {
		// Clean end of the send window: give stragglers a grace period,
		// then stop the receiver; whatever is still pending counts as
		// dropped. A dead connection skips this — its unanswered sends
		// can never be answered.
		gdl := time.Now().Add(grace)
		for time.Now().Before(gdl) {
			w.mu.Lock()
			n := len(w.pending)
			w.mu.Unlock()
			if n == 0 {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	close(stopRecv)
	c.SetReadDeadline(time.Now()) // unblock the receiver
	<-recvDone
	if died {
		return w.connFailed(sessErr)
	}
	return false
}

// connFailed tallies one dead connection and reports whether run should
// re-dial. Outside -reconnect mode the first error is kept and the
// worker stops, preserving the historical fail-fast behavior.
func (w *worker) connFailed(err error) bool {
	w.mu.Lock()
	w.connErrors++
	if err != nil && !w.reconnect && w.err == nil {
		w.err = err
	}
	w.mu.Unlock()
	return w.reconnect
}

// receive reads response frames until stop, matching them to pending
// sends and recording latency. It returns false when the transport died
// underneath it rather than being stopped by the sender.
func (w *worker) receive(c net.Conn, stop <-chan struct{}) bool {
	buf := make([]byte, wire.MaxUDPFrame)
	for {
		select {
		case <-stop:
			return true
		default:
		}
		var (
			h       wire.Header
			payload []byte
			err     error
		)
		if w.proto == "udp" {
			var n int
			n, err = c.Read(buf)
			if err == nil {
				pkt := buf[:n]
				if !wire.BasicPacketFilter(pkt) {
					w.mu.Lock()
					w.malformed++
					w.mu.Unlock()
					continue
				}
				h, _ = wire.ParseHeader(pkt)
				payload = pkt[wire.HeaderSize : wire.HeaderSize+int(h.PayloadLen)]
			}
		} else {
			h, payload, err = wire.ReadFrame(c, buf[:0])
		}
		if err != nil {
			select {
			case <-stop: // expected: deadline fired during teardown
				return true
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return true
			}
			if !w.reconnect {
				w.mu.Lock()
				if w.err == nil {
					w.err = err
				}
				w.mu.Unlock()
			}
			return false
		}
		now := time.Now()
		w.mu.Lock()
		sentAt, ok := w.pending[h.ID]
		if ok {
			delete(w.pending, h.ID)
		}
		switch {
		case !ok:
			w.malformed++ // response to a frame we never sent
		case h.Type == wire.TypeWatchResp:
			if _, derr := wire.DecodeWatchResp(payload); derr != nil {
				w.malformed++
			} else {
				w.received++
				w.lat = append(w.lat, now.Sub(sentAt))
			}
		case h.Type == wire.TypeErr:
			// Overload sheds are the server's explicit backpressure signal
			// and must reconcile against the gateway's dropped counter;
			// anything else is an unexpected failure.
			if code, _, derr := wire.DecodeErr(payload); derr == nil && code == wire.ErrCodeOverloaded {
				w.overloaded++
			} else {
				w.serverErrors++
			}
		default:
			w.malformed++
		}
		w.mu.Unlock()
		if ok {
			select {
			case w.tokens <- struct{}{}:
			default:
			}
		}
	}
}
