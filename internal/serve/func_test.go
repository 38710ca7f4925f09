package serve

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"napmon/internal/core"
	"napmon/internal/tensor"
)

// completions records what the server hands each submitted request's
// done function: how many times it ran and the last outcome. Read it
// only after Shutdown has returned, which orders every completion
// before the read.
type completions struct {
	calls []atomic.Int32
	errs  []error
	vs    []core.Verdict
}

func newCompletions(n int) *completions {
	return &completions{calls: make([]atomic.Int32, n), errs: make([]error, n), vs: make([]core.Verdict, n)}
}

func (c *completions) done(i int) func(core.Verdict, error) {
	return func(v core.Verdict, err error) {
		c.calls[i].Add(1)
		c.vs[i], c.errs[i] = v, err
	}
}

// exactlyOnce fails unless every request in idx completed exactly once.
func (c *completions) exactlyOnce(t *testing.T, idx ...int) {
	t.Helper()
	for _, i := range idx {
		if got := c.calls[i].Load(); got != 1 {
			t.Fatalf("request %d: done ran %d times, want exactly once", i, got)
		}
	}
}

// waitQueued waits until the queue holds n requests: with the lanes
// held, the coalescer has taken the rest into its pending batch.
func waitQueued(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for len(s.queue) != n {
		if time.Now().After(deadline) {
			t.Fatalf("queue holds %d requests, want %d", len(s.queue), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSubmitFuncServed: on the served path every done runs exactly once
// with the verdict serial Watch gives, from blocking and non-blocking
// submits alike.
func TestSubmitFuncServed(t *testing.T) {
	net, mon, inputs := toyServerParts(t, 41)
	s, err := New(net, mon, Config{MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	c := newCompletions(n)
	for i := 0; i < n; i++ {
		x := inputs[i%len(inputs)]
		// The default queue holds all n, so TrySubmitFunc never sheds here.
		if i%2 == 0 {
			err = s.SubmitFunc(context.Background(), x, c.done(i))
		} else {
			err = s.TrySubmitFunc(x, c.done(i))
		}
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	shutdownOK(t, s)
	for i := 0; i < n; i++ {
		c.exactlyOnce(t, i)
		if c.errs[i] != nil {
			t.Fatalf("request %d completed with %v", i, c.errs[i])
		}
		if want := mon.Watch(net, inputs[i%len(inputs)]); !sameVerdict(c.vs[i], want) {
			t.Fatalf("request %d: verdict %+v, want %+v", i, c.vs[i], want)
		}
	}
}

// TestSubmitFuncShedAtPickup: a request whose context ends while it is
// still queued completes once with ErrExpired when the coalescer picks
// it up. MaxBatch 1 and a held lane keep it queued: the coalescer holds
// one full batch and stops reading.
func TestSubmitFuncShedAtPickup(t *testing.T) {
	net, mon, inputs := toyServerParts(t, 42)
	s, release := holdLanes(t, net, mon, Config{MaxBatch: 1})
	c := newCompletions(2)
	if err := s.SubmitFunc(nil, inputs[0], c.done(0)); err != nil {
		t.Fatal(err)
	}
	waitQueued(t, s, 0)
	ctx, cancel := context.WithCancel(context.Background())
	if err := s.SubmitFunc(ctx, inputs[1], c.done(1)); err != nil {
		t.Fatal(err)
	}
	if len(s.queue) != 1 {
		t.Fatalf("queue holds %d requests, want the second one still queued", len(s.queue))
	}
	cancel()
	release()
	shutdownOK(t, s)
	c.exactlyOnce(t, 0, 1)
	if c.errs[0] != nil || !errors.Is(c.errs[1], ErrExpired) {
		t.Fatalf("completions: %v, %v; want served, ErrExpired", c.errs[0], c.errs[1])
	}
	if st := s.Stats(); st.Served != 1 || st.Expired != 1 {
		t.Fatalf("served %d expired %d, want 1/1", st.Served, st.Expired)
	}
}

// TestSubmitFuncShedAtLane: a request picked up live whose context ends
// while its batch waits for a lane completes once with ErrExpired from
// the lane, before inference.
func TestSubmitFuncShedAtLane(t *testing.T) {
	net, mon, inputs := toyServerParts(t, 43)
	s, release := holdLanes(t, net, mon, Config{MaxBatch: 4})
	c := newCompletions(1)
	ctx, cancel := context.WithCancel(context.Background())
	if err := s.SubmitFunc(ctx, inputs[0], c.done(0)); err != nil {
		t.Fatal(err)
	}
	waitQueued(t, s, 0)
	cancel()
	release()
	shutdownOK(t, s)
	c.exactlyOnce(t, 0)
	if !errors.Is(c.errs[0], ErrExpired) {
		t.Fatalf("completion %v, want ErrExpired", c.errs[0])
	}
	if st := s.Stats(); st.Expired != 1 || st.Batches != 0 {
		t.Fatalf("expired %d batches %d, want 1/0", st.Expired, st.Batches)
	}
}

// TestSubmitFuncAbort: an aborting Shutdown completes every accepted
// request once with ErrServerClosed — the coalescer's held batch
// (failAll) and the requests still queued behind it (drainFail).
func TestSubmitFuncAbort(t *testing.T) {
	net, mon, inputs := toyServerParts(t, 44)
	s, release := holdLanes(t, net, mon, Config{MaxBatch: 2, QueueDepth: 8})
	const n = 6
	c := newCompletions(n)
	for i := 0; i < n; i++ {
		if err := s.SubmitFunc(nil, inputs[i], c.done(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitQueued(t, s, n-2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	aborted := make(chan error, 1)
	go func() { aborted <- s.Shutdown(ctx) }()
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < n; i++ {
		for c.calls[i].Load() == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("request %d never completed after the abort", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	release()
	if err := <-aborted; !errors.Is(err, context.Canceled) {
		t.Fatalf("aborted Shutdown = %v, want context.Canceled", err)
	}
	c.exactlyOnce(t, 0, 1, 2, 3, 4, 5)
	for i, err := range c.errs {
		if !errors.Is(err, ErrServerClosed) {
			t.Fatalf("request %d completed with %v, want ErrServerClosed", i, err)
		}
	}
}

// TestSubmitFuncRefused: a submit the server refuses returns its error
// and never runs done — after Shutdown, on a done context, on a full
// queue (TrySubmitFunc), and for an input of the wrong shape.
func TestSubmitFuncRefused(t *testing.T) {
	net, mon, inputs := toyServerParts(t, 45)
	var calls atomic.Int32
	done := func(core.Verdict, error) { calls.Add(1) }

	s, release := holdLanes(t, net, mon, Config{MaxBatch: 1, QueueDepth: 1, InputShape: []int{4}})
	if err := s.SubmitFunc(nil, tensor.New(5), done); err == nil {
		t.Fatal("wrong-shape input accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.SubmitFunc(ctx, inputs[0], done); !errors.Is(err, context.Canceled) {
		t.Fatalf("SubmitFunc on a done ctx: %v, want context.Canceled", err)
	}
	// One request in the coalescer's full batch, one in the queue: the
	// next non-blocking submit finds no room.
	for i := 0; i < 2; i++ {
		if err := s.SubmitFunc(nil, inputs[i], func(core.Verdict, error) {}); err != nil {
			t.Fatal(err)
		}
		waitQueued(t, s, i)
	}
	if err := s.TrySubmitFunc(inputs[2], done); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("TrySubmitFunc on a full queue: %v, want ErrQueueFull", err)
	}
	release()
	shutdownOK(t, s)
	if err := s.SubmitFunc(nil, inputs[0], done); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("SubmitFunc after Shutdown: %v, want ErrServerClosed", err)
	}
	if err := s.TrySubmitFunc(inputs[0], done); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("TrySubmitFunc after Shutdown: %v, want ErrServerClosed", err)
	}
	if got := calls.Load(); got != 0 {
		t.Fatalf("done ran %d times for refused submits", got)
	}
}
