// Command napmon-serve is the serving daemon: one process, one
// multi-tenant model registry (napmon.Registry), two planes over it.
// Every loaded tenant is a (model, monitor, server) lane with its own
// micro-batching queue, hot-loaded and hot-unloaded while traffic
// flows, and a verdict does not depend on which socket asked for it.
//
// The control and JSON plane is HTTP on -addr:
//
//	POST   /v1/models/{name}/watch    {"shape":[1,28,28],"input":[...]} → one verdict
//	POST   /v1/models/{name}/learn    {"class":3,"patterns":["0101..."]} → absorb
//	                                  patterns, publish a new serving epoch
//	GET    /v1/models/{name}/stats    serving counters, latency percentiles, epoch
//	GET    /v1/models                 list loaded tenants (name, wire id, epoch, shape)
//	PUT    /v1/models/{name}          load a tenant (model/monitor files or selftrain;
//	                                  "gamma" defaults to 2, 0 is honoured)
//	DELETE /v1/models/{name}          unload a tenant (drains in-flight work)
//	GET    /v1/models/{name}/snapshot compact binary monitor snapshot (replication)
//	GET    /v1/models/{name}/deltas   ?since=N → binary epoch-delta stream; 410 Gone
//	                                  when N predates the bounded delta log
//	GET    /v1/models/{name}/model    binary model weights (follower bootstrap)
//	GET    /metrics                   Prometheus text: registry series, every
//	                                  tenant's serving series labelled by tenant
//	                                  and (with -udp/-tcp) napmon_gateway_* series
//	GET    /healthz                   liveness probe
//	       /debug/pprof/              net/http/pprof, only with -pprof (profiles
//	                                  leak heap contents: opt in, never default)
//
// The data plane is the binary wire protocol, off unless -udp and/or
// -tcp name a listen address (never -addr's port, so scraping and
// profiling share no socket with frames). UDP sheds overload with an
// explicit error frame, TCP pushes it back through flow control and
// drops nothing; wire.Gateway documents both, wire's TestABI pins the
// bytes, cmd/napmon-soak is the load generator. Frames carry a tenant
// id and route through the registry the HTTP API mutates: the id GET
// /v1/models reports for a PUT-loaded tenant answers frames at once and
// answers ErrCodeUnknownTenant once DELETE unpublishes it. The tenant
// loaded from the flags is "default", wire id 0.
//
// learn (either plane) is the online-update loop: a client that sees a
// flagged (or independently misclassified) decision feeds the verdict's
// pattern back under the decision's true class; the monitor adds it to
// the touched zone's overlay of recent patterns (folding the overlay
// into the zone's plans once it is full) and swaps the zone in
// atomically while watch traffic keeps flowing. Each update also lands in the tenant's
// bounded epoch-keyed delta log, which /deltas serves to followers.
//
// Started with -follow <leader-url> the daemon is a replication
// follower: it lists the leader's tenants, warm-starts each from a
// compact snapshot (frozen at the leader's epoch), then polls the delta
// streams and applies them in epoch order — converging bit-for-bit with
// the leader's monitors, re-syncing from a fresh snapshot if it falls
// behind the bounded log (410). A follower serves watch traffic on both
// planes and is read-only on both: HTTP learn, PUT and DELETE answer
// 409, a wire learn answers an error frame.
//
// On SIGINT/SIGTERM the daemon drains in one order: wire listeners and
// connections close, in-flight HTTP requests finish, the replication
// loop stops, every tenant's serving queue drains.
//
// Usage:
//
//	napmon-serve -model m.model -monitor m.monitor [-addr :8080]
//	napmon-serve -selftrain 0.05 [-dataset mnist] [-seed 1] [-gamma 2] [-shape 1,28,28]
//	             [-udp :9710] [-tcp :9711] [-pprof] [-drain 30s]
//	             [-max-batch 64] [-queue 1024] [-lanes 1]
//	             [-max-inflight 1024]
//	             [-read-idle 30s] [-write-timeout 10s] [-malformed-budget 8]
//	napmon-serve -follow http://leader:8080 [-follow-poll 500ms] [-udp ...] [-tcp ...]
//
// -selftrain trains the chosen Table I network at the given dataset scale
// in-process (handy for demos and smoke tests; see `make smoke`). Inputs
// whose shape differs from a tenant's model are rejected (400 / error
// frame): the tensor kernels panic on mismatched inference, so every
// tenant's server gates them out.
//
// For resilience gates, -chaos-seed arms internal/chaos seeded fault
// injection on whichever fault surface the process has — the -tcp
// listener (resets, stalls, corruption, partial writes, accept
// failures) and/or the -follow leader client (resets, 5xx bursts,
// hangs) — -chaos-faults bounds the budget so the schedule drains, and
// -leak-check fails the exit unless the goroutine count is back at its
// pre-boot baseline after the drain. Contradictory flags are rejected
// before any model is trained or any listener bound.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"napmon"
	"napmon/internal/chaos"
	"napmon/internal/exp"
	"napmon/internal/obs"
	"napmon/internal/wire"
)

// config is everything the flags decide; run is a function of it.
type config struct {
	addr, udp, tcp string // listen addresses; empty udp/tcp = that transport off

	modelPath, monitorPath string
	selftrain              float64
	dataset                string
	seed                   uint64
	gamma                  int
	shape                  []int // nil = the dataset's native shape

	serve   napmon.ServerConfig // applied to every tenant
	gateway wire.GatewayConfig
	drain   time.Duration
	pprof   bool

	follow     string
	followPoll time.Duration

	chaosSeed   uint64
	chaosFaults int
	leakCheck   bool

	// ready, when non-nil, receives the bound listener addresses ("" for
	// a transport that is off) once every plane accepts traffic. No flag
	// sets it: it is how a caller that asked for port 0 finds the daemon.
	ready func(httpAddr, udpAddr, tcpAddr string)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("napmon-serve: ")
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:8080", "HTTP listen address (API, /metrics, /healthz)")
	flag.StringVar(&cfg.udp, "udp", "", "wire-protocol UDP listen address (empty = off)")
	flag.StringVar(&cfg.tcp, "tcp", "", "wire-protocol TCP listen address (empty = off)")
	flag.StringVar(&cfg.modelPath, "model", "", "trained model file (napmon-train -model)")
	flag.StringVar(&cfg.monitorPath, "monitor", "", "monitor file (napmon-train -monitor)")
	flag.Float64Var(&cfg.selftrain, "selftrain", 0, "train in-process at this dataset scale instead of loading files (0 = off)")
	flag.StringVar(&cfg.dataset, "dataset", "mnist", "self-training dataset: mnist or gtsrb")
	flag.Uint64Var(&cfg.seed, "seed", 1, "self-training seed")
	flag.IntVar(&cfg.gamma, "gamma", 2, "self-trained monitor gamma")
	flag.Func("shape", "expected input tensor shape, e.g. 1,28,28 (default: per -dataset)", func(s string) (err error) {
		cfg.shape, err = exp.InputShape(s, "")
		return err
	})
	flag.IntVar(&cfg.serve.MaxBatch, "max-batch", 0, "micro-batch size cap; batches form only while every lane is busy (0 = default 64)")
	flag.IntVar(&cfg.serve.QueueDepth, "queue", 0, "request queue depth (0 = default)")
	flag.IntVar(&cfg.serve.Lanes, "lanes", 0, "serving lanes / network replicas (0 = default)")
	flag.IntVar(&cfg.gateway.MaxInflight, "max-inflight", 0, "per-TCP-connection cap on frames accepted but not yet written, and the UDP in-flight watch cap (0 = default)")
	flag.DurationVar(&cfg.gateway.ReadIdleTimeout, "read-idle", 0, "per-TCP-conn read idle timeout (0 = default 30s, negative = disabled)")
	flag.DurationVar(&cfg.gateway.WriteTimeout, "write-timeout", 0, "per-TCP-conn response write timeout (0 = default 10s, negative = disabled)")
	flag.IntVar(&cfg.gateway.MalformedBudget, "malformed-budget", 0, "malformed payloads one TCP conn may send before teardown (0 = default 8, negative = disabled)")
	flag.DurationVar(&cfg.drain, "drain", 30*time.Second, "graceful shutdown budget")
	flag.BoolVar(&cfg.pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/ on -addr")
	flag.StringVar(&cfg.follow, "follow", "", "replicate from this leader base URL instead of loading a model (read-only follower)")
	flag.DurationVar(&cfg.followPoll, "follow-poll", 500*time.Millisecond, "delta poll interval in -follow mode")
	flag.Uint64Var(&cfg.chaosSeed, "chaos-seed", 0, "seeded fault injection on the -tcp listener and/or the -follow leader client (testing; 0 = off)")
	flag.IntVar(&cfg.chaosFaults, "chaos-faults", 0, "fault budget for -chaos-seed (0 = unbounded)")
	flag.BoolVar(&cfg.leakCheck, "leak-check", false, "after drain, verify the goroutine count returned to the pre-boot baseline (exit 1 and dump stacks on leak)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	// Release the signal registration as soon as the first one lands: a
	// second SIGINT/SIGTERM during a stuck drain falls back to default
	// handling and kills the process instead of being swallowed by the
	// already-done context.
	context.AfterFunc(ctx, stop)
	if err := run(ctx, cfg); err != nil {
		log.Fatal(err)
	}
}

// validate rejects flag combinations that contradict each other or arm
// nothing. It runs before any model is trained or listener bound, so a
// typo costs a usage error, not minutes of self-training.
func (c config) validate() error {
	source := c.modelPath != "" || c.monitorPath != "" || c.selftrain != 0
	switch {
	case c.follow != "" && (source || c.shape != nil):
		return errors.New("-follow mirrors the leader's tenants; it cannot be combined with -model, -monitor, -selftrain or -shape")
	case c.follow == "" && !(c.selftrain > 0 || (c.modelPath != "" && c.monitorPath != "")):
		return errors.New("need either -model and -monitor, or -selftrain > 0, or -follow")
	case c.chaosSeed == 0 && c.chaosFaults != 0:
		return errors.New("-chaos-faults bounds the -chaos-seed schedule; set -chaos-seed")
	case c.chaosSeed != 0 && c.tcp == "" && c.follow == "":
		return errors.New("-chaos-seed has no fault surface to arm; set -tcp and/or -follow")
	case c.leakCheck && c.udp == "" && c.tcp == "":
		return errors.New("-leak-check verifies the wire plane's goroutines exit; set -udp and/or -tcp")
	}
	return nil
}

// run is the daemon: validate, build the one registry, load (or mirror)
// its tenants, open the HTTP plane and — when -udp/-tcp ask — the wire
// plane over that same registry, serve until ctx ends, drain.
func run(ctx context.Context, cfg config) (err error) {
	if err := cfg.validate(); err != nil {
		return err
	}
	// Goroutine baseline before anything exists: after the drain,
	// -leak-check compares against it to prove every lane, listener,
	// connection reader/writer and responder exited.
	baseline := runtime.NumGoroutine()
	d := &daemon{
		reg:      napmon.NewRegistry(napmon.RegistryConfig{Grace: cfg.drain}),
		obsReg:   obs.NewRegistry(),
		serveCfg: cfg.serve,
	}
	d.reg.RegisterMetrics(d.obsReg)
	defer func() {
		d.drain(cfg.drain)
		if err == nil && cfg.leakCheck {
			err = checkGoroutines(baseline)
		}
	}()

	if err := d.loadTenants(ctx, cfg); err != nil {
		return err
	}
	httpErr, err := d.listen(cfg)
	if err != nil {
		return err
	}
	if d.fol != nil {
		d.fol.start(ctx)
	}
	select {
	case err := <-httpErr:
		return fmt.Errorf("http listener: %w", err)
	case <-ctx.Done():
		return nil
	}
}

// loadTenants fills the registry before any listener opens, so the
// first request never sees an empty fleet: a follower mirrors its
// leader's tenant set, anything else loads the flag-named model as the
// default tenant.
func (d *daemon) loadTenants(ctx context.Context, cfg config) error {
	if cfg.follow != "" {
		d.fol = newFollower(d, cfg.follow, cfg.followPoll)
		if cfg.chaosSeed != 0 {
			// Chaos gates put the whole leader conversation behind an
			// injected-fault transport: resets, 5xx bursts and hangs (the
			// stall outlives the request timeout, so hangs surface as
			// client deadline errors). Same seed, same fault sequence.
			plan := chaos.NewSchedule(cfg.chaosSeed, chaos.Rates{
				Reset:     0.15,
				HTTPErr:   0.15,
				HTTPHang:  0.05,
				StallFor:  2 * d.fol.timeout,
				MaxFaults: cfg.chaosFaults,
			})
			d.fol.client.Transport = chaos.NewRoundTripper(d.fol.client.Transport, plan, nil)
			log.Printf("follow: chaos transport armed (seed %d, budget %d)", cfg.chaosSeed, cfg.chaosFaults)
		}
		// Retry under backoff: a follower racing its leader up (or
		// starting into an injected fault burst) converges instead of
		// dying on the first refused connection.
		if err := d.fol.bootstrapRetry(ctx, time.Minute); err != nil {
			return fmt.Errorf("follow %s: %w", cfg.follow, err)
		}
		log.Printf("following %s (%d tenants, poll %v)", cfg.follow, d.reg.Len(), cfg.followPoll)
		return nil
	}
	_, err := d.load(napmon.DefaultTenant, loadRequest{
		Model: cfg.modelPath, Monitor: cfg.monitorPath,
		Selftrain: cfg.selftrain, Dataset: cfg.dataset, Seed: cfg.seed, Gamma: &cfg.gamma,
		Shape: cfg.shape,
	})
	return err
}

// chaosStall is how long an injected TCP read/write stall lasts.
const chaosStall = 100 * time.Millisecond

// listen opens the planes: the wire gateway first (when asked for), the
// HTTP listener last, so a green /healthz means every plane is up. The
// returned channel carries the HTTP serve loop's exit error.
func (d *daemon) listen(cfg config) (<-chan error, error) {
	var udpAddr, tcpAddr string
	if cfg.udp != "" || cfg.tcp != "" {
		d.gw = wire.NewFleetGateway(d.resolveLane, d.reg.Len, cfg.gateway)
		d.gw.RegisterMetrics(d.obsReg)
	}
	if cfg.udp != "" {
		if err := d.gw.ListenUDP(cfg.udp); err != nil {
			return nil, err
		}
		udpAddr = d.gw.UDPAddr().String()
		log.Printf("udp on %s (wire protocol v%d)", udpAddr, wire.Version)
	}
	if cfg.tcp != "" {
		ln, err := net.Listen("tcp", cfg.tcp)
		if err != nil {
			return nil, err
		}
		if cfg.chaosSeed != 0 {
			// Every accepted conn (and the accept path itself) rides the
			// seeded fault schedule: resets, stalls, corruption, partial
			// writes, transient accept failures. Same seed, same faults —
			// a red chaos gate is replayable byte for byte.
			plan := chaos.NewSchedule(cfg.chaosSeed, chaos.Rates{
				Reset:        0.02,
				ReadStall:    0.02,
				Corrupt:      0.02,
				WriteStall:   0.02,
				PartialWrite: 0.02,
				AcceptFail:   0.10,
				StallFor:     chaosStall,
				MaxFaults:    cfg.chaosFaults,
			})
			ln = chaos.WrapListener(ln, plan, nil)
			log.Printf("chaos listener armed (seed %d, budget %d, stall %v)", cfg.chaosSeed, cfg.chaosFaults, chaosStall)
		}
		if err := d.gw.ServeTCP(ln); err != nil {
			return nil, err
		}
		tcpAddr = d.gw.TCPAddr().String()
		log.Printf("tcp on %s (wire protocol v%d)", tcpAddr, wire.Version)
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return nil, err
	}
	// Header/read timeouts keep one slow-trickling client from pinning a
	// connection forever and forcing every graceful drain to abort.
	d.httpSrv = &http.Server{
		Handler:           d.routes(cfg.pprof),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
	}
	httpErr := make(chan error, 1)
	go func() { httpErr <- d.httpSrv.Serve(ln) }()
	log.Printf("serving on http://%s (/v1/models..., GET /metrics, GET /healthz)", ln.Addr())
	if cfg.ready != nil {
		cfg.ready(ln.Addr().String(), udpAddr, tcpAddr)
	}
	return httpErr, nil
}

// drain tears down whatever came up, in the one order that loses
// nothing: the wire gateway closes first so no new frames reach the
// lanes, HTTP stops accepting and finishes its in-flight requests, the
// replication loop stops, and only then do the tenants' queues drain.
func (d *daemon) drain(budget time.Duration) {
	log.Printf("draining (budget %v)...", budget)
	dctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	if d.gw != nil {
		d.gw.Close()
	}
	if d.httpSrv != nil {
		if err := d.httpSrv.Shutdown(dctx); err != nil {
			log.Printf("http shutdown: %v", err)
		}
	}
	if d.fol != nil {
		d.fol.stop()
	}
	var served, batches uint64
	for _, name := range d.reg.Names() {
		if t := d.reg.Peek(name); t != nil {
			st := t.Server().Stats()
			served += st.Served
			batches += st.Batches
		}
	}
	if err := d.reg.Close(dctx); err != nil {
		log.Printf("registry close: %v", err)
	}
	log.Printf("drained: served %d requests in %d batches across the fleet", served, batches)
	if d.gw != nil {
		ct := d.gw.Counters()
		log.Printf("wire: %d frames in (%d malformed, %d shed, %d conns reaped, %d over budget)",
			ct.Received, ct.Malformed, ct.Dropped, ct.Reaped, ct.OverBudget)
	}
}

// checkGoroutines polls until the goroutine count settles back at (or
// under) the pre-boot baseline, with slack for runtime helpers; a count
// still elevated after the grace window is a leak — dump stacks and
// fail, so the chaos gate catches a reader/writer/responder that
// survived its connection.
func checkGoroutines(baseline int) error {
	const slack = 2
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline+slack {
			log.Printf("leak check ok: %d goroutines (baseline %d)", n, baseline)
			return nil
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			return fmt.Errorf("leak check FAILED: %d goroutines, baseline %d+%d\n%s", n, baseline, slack, buf)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
