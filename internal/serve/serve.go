// Package serve is the streaming serving subsystem: a long-lived Server
// that owns a frozen Monitor and accepts single-sample Submit calls from
// any number of goroutines, coalescing them into micro-batches that hit
// the fast WatchBatch path.
//
// The pipeline has three stages, each its own goroutine set:
//
//	Submit/SubmitAll → bounded request queue → coalescer → lanes
//
// The request queue is a buffered channel of configurable depth; a full
// queue exerts backpressure by blocking Submit. The coalescer drains the
// queue into batches and is work-conserving: it never waits on a clock.
// A batch leaves the moment a lane is idle and otherwise keeps growing,
// up to MaxBatch, while every lane is busy — so trickle traffic is
// answered at inference latency and saturating traffic still rides full
// batches, because batches form exactly when lanes are the bottleneck.
// Lanes are per-shard monitor replicas: each owns a CloneShared copy of
// the network plus a warm scratch pool and executes whole micro-batches
// through the batched GEMM inference path (Monitor.WatchBatchPooledTimed →
// Network.ForwardBatch) — the batch width is literally the GEMM width —
// against the monitor's compiled zones, which are safe for concurrent
// reads by construction (see DESIGN.md, "Build → publish epoch 1 → serve:
// concurrency model" and "Batched inference").
// The zone queries themselves run on the compiled query plans the
// monitor's epoch carries (Zone.ContainsBatch, grouped per predicted
// class): all lanes share one set of plans per epoch, and an online
// update adds its patterns to the touched zones' overlays, recompiling a
// zone only when its overlay is full (see DESIGN.md, "Online updates:
// epochs, grace periods").
//
// Every accepted request carries one completion function, and the
// server calls it exactly once — with a Verdict, with ErrExpired if its
// context ran out before a lane took it, or with ErrServerClosed if the
// server aborts before serving it. Submit, SubmitCtx and SubmitAll wrap
// that function in a *Future for callers that block on
// a result. Front ends that serve many requests per goroutine pass
// their own function through SubmitFunc instead: the
// lane that serves a micro-batch then hands every verdict of it on
// directly, with no goroutine parked per request (the wire gateway
// turns them into queued frames, so a batch leaves in one socket
// write). Shutdown drains: requests accepted before Shutdown are still
// served unless the shutdown context expires first.
//
// RegisterMetrics is the one description of a server's /metrics
// families. It binds them to a resolver rather than to a Server, so a
// caller that swaps servers under one name (the registry's reload)
// keeps one set of series that reads whichever server the name holds.
package serve

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"napmon/internal/core"
	"napmon/internal/nn"
	"napmon/internal/obs"
	"napmon/internal/tensor"
)

// ErrServerClosed is returned by Submit and SubmitAll after Shutdown has
// begun, and resolves any Future the server aborted before serving.
var ErrServerClosed = errors.New("serve: server closed")

// ErrExpired resolves the Future of a SubmitCtx request whose context
// was cancelled or deadline-expired while it waited in the queue or for
// a lane: the server sheds it instead of spending inference on an
// answer nobody is waiting for. It is deliberately distinct from the
// context's own error so callers can tell "the server shed my stale
// request" from errors raised on their side.
var ErrExpired = errors.New("serve: request expired before serving")

// Config sizes a Server. The zero value of any field selects its default.
type Config struct {
	// MaxBatch caps a micro-batch (default 64): while every lane is busy
	// the coalescer grows the waiting batch up to this many requests and
	// then stops reading the queue. It is the widest GEMM a lane runs
	// and sizes its scratch working set. MaxBatch 1 disables coalescing
	// — every request is its own batch.
	MaxBatch int
	// MaxDelay is accepted and ignored: dispatch is lane-driven and no
	// batch waits on a clock, so there is no delay to bound. The field
	// stays only because bench/ still sets it; a negative value is still
	// rejected.
	MaxDelay time.Duration
	// QueueDepth is the request queue capacity (default 1024). A full
	// queue blocks Submit — backpressure instead of unbounded memory.
	QueueDepth int
	// Lanes is the number of serving lanes (default 1). Each lane owns a
	// CloneShared network replica and serves whole batches; more lanes
	// overlap inference of consecutive batches at the cost of
	// oversubscribing cores, since each WatchBatch already fans out over
	// GOMAXPROCS workers.
	Lanes int
	// InputShape, when non-nil, makes Submit reject inputs whose tensor
	// shape differs from it. The tensor substrate panics on
	// shape-mismatched inference, which inside a lane goroutine would
	// take the whole server down — a front end accepting untrusted
	// inputs (e.g. cmd/napmon-serve) should always set this.
	InputShape []int
}

func (c Config) withDefaults() Config {
	if c.MaxBatch == 0 {
		c.MaxBatch = 64
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 1024
	}
	if c.Lanes == 0 {
		c.Lanes = 1
	}
	return c
}

func (c Config) validate() error {
	switch {
	case c.MaxBatch < 0:
		return fmt.Errorf("serve: negative MaxBatch %d", c.MaxBatch)
	case c.MaxDelay < 0:
		return fmt.Errorf("serve: negative MaxDelay %v", c.MaxDelay)
	case c.QueueDepth < 0:
		return fmt.Errorf("serve: negative QueueDepth %d", c.QueueDepth)
	case c.Lanes < 0:
		return fmt.Errorf("serve: negative Lanes %d", c.Lanes)
	}
	return nil
}

// request is one queued unit of work: the input, the completion
// function that carries its verdict back (see SubmitFunc for its
// contract), the submitter's context (nil for the ctx-less Submit
// paths — never consulted again once nil), and the enqueue/dequeue
// timestamps the per-stage latency metrics are based on (enq set by
// Submit, deq by the coalescer when it picks the request up).
type request struct {
	ctx   context.Context
	input *tensor.Tensor
	done  func(core.Verdict, error)
	enq   time.Time
	deq   time.Time
}

// batch is one coalesced micro-batch in flight to a lane, stamped at
// hand-off so the dispatch stage (hand-off → lane running) is
// measurable.
type batch struct {
	reqs    []request
	flushed time.Time
}

// lane is one serving shard: a CloneShared network replica plus a
// private scratch pool that feeds the batched GEMM inference path and
// stays warm across micro-batches, and the slice each batch's inputs are
// gathered into. Zone membership reads go to the shared frozen monitor,
// which needs no replication.
type lane struct {
	net     *nn.Network
	scratch *tensor.Pool
	inputs  []*tensor.Tensor // empty between batches; grows to the widest served
}

// Server is a long-lived serving front end over one frozen monitor.
// Construct with New, feed with Submit/SubmitAll from any number of
// goroutines, stop with Shutdown.
type Server struct {
	cfg   Config
	mon   *core.Monitor
	lanes []*lane

	queue   chan request  // Submit → coalescer (bounded; backpressure)
	batches chan batch    // coalescer → lanes, one slot per lane
	idle    chan struct{} // lanes → coalescer: one token per lane waiting for work
	aborted chan struct{} // closed when a Shutdown context expires
	done    chan struct{} // closed when coalescer and all lanes exit

	mu       sync.Mutex
	closed   bool
	inflight sync.WaitGroup // Submits between the closed-check and enqueue

	abortOnce sync.Once
	wg        sync.WaitGroup // coalescer + lanes

	submitted atomic.Uint64
	rejected  atomic.Uint64
	expired   atomic.Uint64
	// counts carries (served, batches) as one immutable pair so readers
	// snapshot both atomically; see servedCounts.
	counts    atomic.Pointer[servedCounts]
	stages    stageStats
	batchSize obs.Histogram // width of every batch a lane ran
}

// New builds a Server over the network and monitor and starts its
// coalescer and lane goroutines. The entire serving path is read-only;
// the network must not be trained while the server lives. Stop the server
// with Shutdown.
func New(net *nn.Network, m *core.Monitor, cfg Config) (*Server, error) {
	s, err := newServer(net, m, cfg)
	if err != nil {
		return nil, err
	}
	s.startLanes()
	return s, nil
}

// newServer is New short of starting the lanes: the coalescer runs, but
// no lane has announced itself idle yet, so accepted requests park in
// the coalescer exactly as they do behind lanes that are all mid-batch.
// Tests hold the lanes back to build such a backlog without a clock.
func newServer(net *nn.Network, m *core.Monitor, cfg Config) (*Server, error) {
	if net == nil {
		return nil, errors.New("serve: nil network")
	}
	if m == nil {
		return nil, errors.New("serve: nil monitor")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		mon:     m,
		queue:   make(chan request, cfg.QueueDepth),
		batches: make(chan batch, cfg.Lanes),
		idle:    make(chan struct{}, cfg.Lanes),
		aborted: make(chan struct{}),
		done:    make(chan struct{}),
	}
	s.counts.Store(&servedCounts{})
	s.lanes = make([]*lane, cfg.Lanes)
	for i := range s.lanes {
		s.lanes[i] = &lane{net: net.CloneShared(), scratch: tensor.NewPool()}
	}
	s.wg.Add(1 + len(s.lanes))
	go s.coalesce()
	go func() {
		s.wg.Wait()
		close(s.done)
	}()
	return s, nil
}

// startLanes starts the lane goroutines newServer already accounted for
// in s.wg. Call it once.
func (s *Server) startLanes() {
	for _, ln := range s.lanes {
		go s.serveLane(ln)
	}
}

// Submit enqueues one input for monitored classification and returns a
// Future resolving to its Verdict. It is safe from any number of
// goroutines. When the request queue is full, Submit blocks — that is the
// backpressure contract. After Shutdown has begun it returns
// ErrServerClosed without enqueuing.
func (s *Server) Submit(x *tensor.Tensor) (*Future, error) {
	return s.future(nil, x)
}

// SubmitCtx is Submit with deadline and cancellation propagation. While
// the caller is blocked on a full queue, ctx expiring unblocks it with
// ctx.Err() and nothing is enqueued — the queue slot is not leaked. Once
// enqueued, the request carries ctx through the pipeline: if the
// deadline fires while it is still queued (or waiting for a lane), the
// server sheds it before inference, its Future resolves to ErrExpired,
// and Stats.Expired counts it. A ctx that is already done submits
// nothing and returns ctx.Err() immediately. A nil ctx behaves exactly
// like Submit.
func (s *Server) SubmitCtx(ctx context.Context, x *tensor.Tensor) (*Future, error) {
	return s.future(ctx, x)
}

// SubmitFunc is SubmitCtx with a completion function in place of the
// Future: it blocks on a full queue exactly as SubmitCtx does, and
// sheds on ctx the same way. When it returns nil, done runs exactly
// once, on a serve goroutine (the lane that served the request, or the
// coalescer when it shed or failed it), with the Verdict or the error
// the Future would have carried. done must not block — it holds up the
// lane and every request of its batch behind it — and must not submit
// to this server. When SubmitFunc returns an error, done never runs.
func (s *Server) SubmitFunc(ctx context.Context, x *tensor.Tensor, done func(core.Verdict, error)) error {
	return s.submit(ctx, x, done)
}

// future submits x, blocking on a full queue, with a fresh Future's
// resolve as its completion.
func (s *Server) future(ctx context.Context, x *tensor.Tensor) (*Future, error) {
	fut := newFuture()
	if err := s.submit(ctx, x, fut.complete); err != nil {
		return nil, err
	}
	return fut, nil
}

// submit is the one intake path: it validates x, then enqueues it with
// done, blocking on a full queue (until ctx is done, when ctx is
// non-nil).
func (s *Server) submit(ctx context.Context, x *tensor.Tensor, done func(core.Verdict, error)) error {
	// A nil ctx leaves ctxDone nil — a never-ready select case — so the
	// ctx-less paths pay nothing for the extra arm.
	var ctxDone <-chan struct{}
	if ctx != nil {
		ctxDone = ctx.Done()
		select {
		case <-ctxDone:
			return ctx.Err()
		default:
		}
	}
	if x == nil {
		return errors.New("serve: nil input")
	}
	if s.cfg.InputShape != nil && !slices.Equal(x.Shape(), s.cfg.InputShape) {
		return fmt.Errorf("serve: input shape %v, server expects %v", x.Shape(), s.cfg.InputShape)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.rejected.Add(1)
		return ErrServerClosed
	}
	s.inflight.Add(1)
	s.mu.Unlock()
	defer s.inflight.Done()
	req := request{ctx: ctx, input: x, done: done, enq: time.Now()}
	select {
	case s.queue <- req:
		s.submitted.Add(1)
		return nil
	case <-s.aborted:
		s.rejected.Add(1)
		return ErrServerClosed
	case <-ctxDone:
		return ctx.Err()
	}
}

// SubmitAll enqueues every input and returns one Future per input, in
// input order. If the server closes partway, the returned error is
// non-nil and the futures of the unsubmitted tail resolve to that error,
// so the slice is always fully resolvable.
func (s *Server) SubmitAll(inputs []*tensor.Tensor) ([]*Future, error) {
	futs := make([]*Future, len(inputs))
	for i, x := range inputs {
		f, err := s.Submit(x)
		if err != nil {
			for j := i; j < len(inputs); j++ {
				futs[j] = failedFuture(err)
			}
			return futs, err
		}
		futs[i] = f
	}
	return futs, nil
}

// Update feeds newly observed activation patterns back into the monitor
// while the server keeps serving: the monitor builds successors for the
// touched zones and publishes them as a new epoch with one atomic swap
// (Monitor.UpdateBatch), which the lanes pick up at micro-batch
// granularity — no request is dropped or delayed across the swap, and no
// batch mixes zones from two generations. delta maps class → patterns to
// absorb (widths must match the monitor). Updates may be called from any
// goroutine, including while Submits are in flight and after Shutdown;
// concurrent updates are serialized by the monitor. It returns the id of
// the epoch now serving.
func (s *Server) Update(delta map[int][]core.Pattern) (uint64, error) {
	return s.mon.UpdateBatch(delta)
}

// UpdateGamma republishes the monitor's zones at a new enlargement level
// (Monitor.UpdateGamma) without a serving gap; see Update for the epoch
// semantics.
func (s *Server) UpdateGamma(gamma int) (uint64, error) {
	return s.mon.UpdateGamma(gamma)
}

// Shutdown stops the server gracefully: new Submits fail with
// ErrServerClosed immediately, while requests already accepted are
// drained through the coalescer and lanes. If ctx expires before the
// drain completes, the server aborts — undelivered futures resolve to
// ErrServerClosed (a lane mid-batch finishes that batch first) — and
// ctx.Err() is returned. Shutdown is idempotent and safe to call
// concurrently; it returns nil only for a clean drain, and
// ErrServerClosed when a concurrent Shutdown's expired context aborted
// the server first.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	first := !s.closed
	s.closed = true
	s.mu.Unlock()
	if first {
		go func() {
			// Once no Submit is between its closed-check and its enqueue,
			// the queue can close; the coalescer drains it to completion.
			s.inflight.Wait()
			close(s.queue)
		}()
	}
	// drained reports how a completed pipeline actually went down: nil
	// for a clean drain, ErrServerClosed when another caller's expired
	// context aborted the server and failed accepted requests (aborted
	// always closes before done, so the check is race-free here).
	drained := func() error {
		select {
		case <-s.aborted:
			return ErrServerClosed
		default:
			return nil
		}
	}
	select {
	case <-s.done:
		return drained()
	case <-ctx.Done():
		// select picks randomly when both channels are ready: don't
		// report a drain that actually completed as a failure.
		select {
		case <-s.done:
			return drained()
		default:
		}
		s.abort()
		<-s.done
		return ctx.Err()
	}
}

// abort flips the server into fail-fast mode: blocked Submits return,
// queued and batched requests resolve to ErrServerClosed.
func (s *Server) abort() {
	s.abortOnce.Do(func() { close(s.aborted) })
}

// Stats returns a snapshot of the server's counters and latency
// percentiles. Safe to call at any time, including after Shutdown.
func (s *Server) Stats() Stats {
	// One pointer load yields served and batches from the same instant:
	// the mean cannot be skewed by a batch completing between two loads.
	sc := s.counts.Load()
	mean := 0.0
	if sc.batches > 0 {
		mean = float64(sc.served) / float64(sc.batches)
	}
	total := s.stages.latency(stageTotal)
	stages := make(map[string]StageLatency, numStages)
	for i, name := range stageNames {
		stages[name] = s.stages.latency(i)
	}
	watched, oop, unmon := s.mon.WatchTotals()
	return Stats{
		Queued:        len(s.queue),
		Submitted:     s.submitted.Load(),
		Served:        sc.served,
		Rejected:      s.rejected.Load(),
		Expired:       s.expired.Load(),
		Batches:       sc.batches,
		MeanBatchSize: mean,
		P50:           total.P50,
		P99:           total.P99,
		Stages:        stages,
		Monitored:     watched,
		OutOfPattern:  oop,
		Unmonitored:   unmon,
		Gamma:         s.mon.Gamma(),
		Lanes:         len(s.lanes),
		Epoch:         s.mon.Epoch(),
		Updates:       s.mon.Updater().Published(),
		Recompiled:    s.mon.Updater().Recompiled(),
	}
}

// InputShape returns the shape Submit gates inputs on (Config.InputShape;
// nil when the server is ungated). A front end validates a request body
// against the tenant it pinned through this, so the gate has one copy.
// The slice is the server's own: read it, do not write it.
func (s *Server) InputShape() []int { return s.cfg.InputShape }
