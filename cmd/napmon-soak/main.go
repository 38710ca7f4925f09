// Command napmon-soak is the load generator for the wire plane of
// cmd/napmon-serve (its -tcp listener): it hammers the gateway with
// wire-protocol watch requests over TCP for a fixed duration and
// reports throughput and latency percentiles as JSON.
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
// fail the decoder or answer no request (malformed), and error frames
// (server_errors). With -strict, any of those makes the process exit 1
// — this is the CI soak gate.
//
// -metrics URL points at the daemon's GET /metrics (its HTTP -addr). The
// soak scrapes it before and after the run and cross-checks the
// server-side deltas against its own per-frame accounting. The served
// count is the default tenant's (napmon_requests_served_total{tenant=
// "default"}), the tenant every frame this soak sends addresses. With
// -strict, requests the server says it served must equal watch
// responses this client received; otherwise they must lie between the
// responses received and those plus the frames that never came back
// (dropped), since a frame lost on its way back was still served. A
// mismatch means lost or double-counted frames somewhere
// between the serving lanes and this socket; it is printed in the
// report and fails -strict.
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
//	napmon-soak -addr 127.0.0.1:9711 -duration 10s [-rate 0]
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

// options is everything the flags decide about one run.
type options struct {
	addr            string
	duration, grace time.Duration
	connectTimeout  time.Duration
	rate            float64
	conns, window   int
	shape           []int
	seed            uint64
	metrics         string // /metrics URL; empty = no server-side accounting
	reconnect       bool
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("napmon-soak: ")
	var o options
	flag.StringVar(&o.addr, "addr", "127.0.0.1:9711", "gateway TCP address")
	flag.DurationVar(&o.duration, "duration", 10*time.Second, "send for this long")
	flag.Float64Var(&o.rate, "rate", 0, "open-loop request rate per second across all conns (0 = closed loop)")
	flag.IntVar(&o.conns, "conns", 4, "concurrent connections")
	flag.IntVar(&o.window, "window", 32, "closed-loop outstanding requests per conn")
	flag.Uint64Var(&o.seed, "seed", 1, "input generator seed")
	flag.StringVar(&o.metrics, "metrics", "", "napmon-serve /metrics URL to scrape before and after for server-side accounting (empty = off)")
	flag.DurationVar(&o.connectTimeout, "connect-timeout", 10*time.Second, "budget for the initial ping probe")
	flag.DurationVar(&o.grace, "grace", 2*time.Second, "wait this long after the send window for stragglers")
	flag.BoolVar(&o.reconnect, "reconnect", false, "re-dial and keep going when a connection dies mid-run (for fault-injected gateways); transport failures are counted in conn_errors, not fatal")
	var (
		shapeFlag  = flag.String("shape", "", "input tensor shape to send (default: per -dataset)")
		ds         = flag.String("dataset", "mnist", "dataset whose native shape to send when -shape is empty")
		out        = flag.String("o", "", "write the JSON report here (default stdout)")
		strict     = flag.Bool("strict", false, "exit 1 on any dropped, malformed, or error-frame response, or a server-vs-client accounting mismatch")
		chaosCheck = flag.Bool("chaos-check", false, "exit 1 unless the run upholds the chaos invariants: responses were received, every received response decoded to a valid verdict, and (with -metrics) the client never received more than the server served")
	)
	flag.Parse()
	if o.conns < 1 || o.window < 1 {
		log.Fatal("-conns and -window must be >= 1")
	}
	var err error
	if o.shape, err = exp.InputShape(*shapeFlag, *ds); err != nil {
		log.Fatal(err)
	}

	rep, err := soak(o)
	if err != nil {
		log.Fatal(err)
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

// soak runs one load test as o describes: probe the gateway, scrape
// /metrics (when o.metrics is set), drive o.conns workers for
// o.duration, scrape again, and tally the client's and the server's
// accounting into one report. judge decides what the report means.
func soak(o options) (report, error) {
	rep := report{Conns: o.conns, Window: o.window, Rate: o.rate}
	if err := probe(o.addr, o.connectTimeout); err != nil {
		return rep, fmt.Errorf("gateway probe failed: %w", err)
	}

	var before uint64
	if o.metrics != "" {
		var err error
		if before, err = scrape(o.metrics); err != nil {
			return rep, fmt.Errorf("pre-run metrics scrape: %w", err)
		}
	}

	workers := make([]*worker, o.conns)
	var wg sync.WaitGroup
	for i := range workers {
		w := newWorker(i, o.addr, o.shape, o.seed+uint64(i)*1e6, o.window, o.reconnect)
		workers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(o.duration, o.rate/float64(o.conns), o.grace)
		}()
	}
	wg.Wait()

	// Throughput is measured over the send window (the longest worker's
	// dial-to-last-send span), not the straggler grace period — grace
	// only decides what counts as dropped.
	var elapsed time.Duration
	var lat []time.Duration
	for _, w := range workers {
		if w.err != nil {
			return rep, fmt.Errorf("conn %d: %w", w.id, w.err)
		}
		if w.sendElapsed > elapsed {
			elapsed = w.sendElapsed
		}
		rep.Sent += w.sent
		rep.Received += w.received
		rep.Malformed += w.malformed
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

	if o.metrics != "" {
		after, err := scrape(o.metrics)
		if err != nil {
			return rep, fmt.Errorf("post-run metrics scrape: %w", err)
		}
		rep.Server = &serverSide{ServedDelta: after - before}
	}
	return rep, nil
}

// judge is the run's verdict, a pure function of its report. mismatches
// lists where the server's /metrics deltas disagree with this client's
// per-frame accounting (checked only when rep.Server is set), which
// holds when this soak is the gateway's sole client, as in CI: under
// strict every request the server counts as served must have come back
// as a watch response. Without strict, a frame the server served may
// still have been lost on its way back (a reset connection) and counted
// as dropped, so served must lie in [received, received + dropped].
// failures lists why the run fails the gates it was asked for; none
// means exit 0.
//
// -strict demands closed accounting: nothing dropped, malformed or
// errored, and no mismatch. -chaos-check cannot — injected resets
// legitimately lose responses and corrupted requests legitimately earn
// error frames — so it demands what must still hold: the service did real
// work (responses came back), every response that did come back decoded
// to a valid verdict, and the client never received more verdicts than
// the server claims it served (phantom responses).
func judge(rep report, strict, chaosCheck bool) (mismatches, failures []string) {
	if sv := rep.Server; sv != nil {
		switch {
		case strict && sv.ServedDelta != rep.Received:
			mismatches = append(mismatches, fmt.Sprintf("server served %d, client received %d",
				sv.ServedDelta, rep.Received))
		case sv.ServedDelta < rep.Received || sv.ServedDelta > rep.Received+rep.Dropped:
			mismatches = append(mismatches, fmt.Sprintf("server served %d, client received %d and lost %d",
				sv.ServedDelta, rep.Received, rep.Dropped))
		}
	}
	if strict && (rep.Dropped > 0 || rep.Malformed > 0 || rep.ServerErrors > 0 || len(mismatches) > 0) {
		failures = append(failures, fmt.Sprintf("strict: %d dropped, %d malformed, %d server errors, accounting ok=%v",
			rep.Dropped, rep.Malformed, rep.ServerErrors, len(mismatches) == 0))
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

// soakTenant selects the series of the tenant soak frames address
// (wire tenant id 0).
var soakTenant = map[string]string{"tenant": "default"}

// scrape fetches and parses a Prometheus exposition and returns the
// default tenant's served counter, the server side of the accounting
// diff. The exposition is validated wholesale by the internal parser,
// so a malformed metrics page fails the soak loudly rather than reading
// as zero.
func scrape(url string) (served uint64, err error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	exp, err := obs.ParseExposition(resp.Body)
	if err != nil {
		return 0, fmt.Errorf("parse %s: %w", url, err)
	}
	const name = "napmon_requests_served_total"
	v, ok := exp.Value(name, soakTenant)
	if !ok {
		return 0, fmt.Errorf("%s: series %s missing (labels %v)", url, name, soakTenant)
	}
	return uint64(v), nil
}

// report is the JSON document the soak run emits.
type report struct {
	Conns         int     `json:"conns"`
	Window        int     `json:"window"`
	Rate          float64 `json:"rate"`
	DurationS     float64 `json:"duration_s"`
	Sent          uint64  `json:"sent"`
	Received      uint64  `json:"received"`
	Dropped       uint64  `json:"dropped"`
	Malformed     uint64  `json:"malformed"`
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
	ConsistentWithClient bool   `json:"consistent_with_client"`
}

// probe pings the gateway once so a wrong address fails fast with a
// clear message instead of a ten-second soak full of drops.
func probe(addr string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	var lastErr error
	for time.Now().Before(deadline) {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			lastErr = err
			time.Sleep(100 * time.Millisecond)
			continue
		}
		c.SetDeadline(time.Now().Add(time.Second))
		c.Write(wire.AppendPing(nil, 0))
		h, _, err := wire.ReadFrame(c, nil)
		lastErr = err
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

// worker owns one connection: a sender paced by the chosen mode, a
// receiver matching responses to send timestamps by frame id, and
// per-conn tallies merged by main after the run.
type worker struct {
	id    int
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
	serverErrors uint64
	connErrors   uint64
	lat          []time.Duration
	err          error
}

func newWorker(id int, addr string, shape []int, seed uint64, window int, reconnect bool) *worker {
	return &worker{
		id: id, addr: addr, shape: shape,
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
	c, err := net.Dial("tcp", w.addr)
	if err != nil {
		return w.connFailed(err)
	}
	defer c.Close()
	c.SetDeadline(end.Add(grace + time.Minute))

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
			// A response that never comes back leaks its window token, so
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
	var buf []byte
	for {
		select {
		case <-stop:
			return true
		default:
		}
		h, payload, err := wire.ReadFrame(c, buf)
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
		buf = payload[:0]
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
			w.serverErrors++
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
