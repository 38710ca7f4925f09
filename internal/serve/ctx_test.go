package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"napmon/internal/tensor"
)

// TestSubmitCtxCancelBlocked pins the blocked-submit contract: a caller
// blocked on a full queue unblocks with ctx.Err() when its context is
// cancelled, and no queue slot leaks — the request was never enqueued.
// Uses the bare-Server idiom (no goroutines drain the queue), so the
// block is deterministic.
func TestSubmitCtxCancelBlocked(t *testing.T) {
	s := &Server{
		queue:   make(chan request, 1),
		aborted: make(chan struct{}),
	}
	if _, err := s.Submit(tensor.New(4)); err != nil {
		t.Fatalf("fill queue: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.SubmitCtx(ctx, tensor.New(4))
		errc <- err
	}()
	select {
	case err := <-errc:
		t.Fatalf("SubmitCtx returned %v before cancel; should be blocked on the full queue", err)
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled blocked submit: %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel did not unblock SubmitCtx")
	}
	if got := len(s.queue); got != 1 {
		t.Fatalf("queue holds %d requests after cancelled submit, want 1 (no slot leaked)", got)
	}
	if got := s.submitted.Load(); got != 1 {
		t.Fatalf("submitted counter %d, want 1 — the cancelled request must not count", got)
	}
}

// TestSubmitCtxAlreadyDone: a context that is done before the call
// submits nothing and returns its error immediately, even with room in
// the queue.
func TestSubmitCtxAlreadyDone(t *testing.T) {
	s := &Server{
		queue:   make(chan request, 4),
		aborted: make(chan struct{}),
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.SubmitCtx(ctx, tensor.New(4)); !errors.Is(err, context.Canceled) {
		t.Fatalf("SubmitCtx with done ctx: %v, want context.Canceled", err)
	}
	if got := len(s.queue); got != 0 {
		t.Fatalf("queue holds %d requests, want 0", got)
	}
}

// TestSubmitCtxExpiredInQueue pins the in-pipeline shed: a request whose
// deadline fires while it is parked behind a busy lane resolves to
// ErrExpired (not its ctx error, not a verdict), increments
// Stats.Expired, skips the batch counters, and leaves the server
// perfectly able to serve the next live request.
func TestSubmitCtxExpiredInQueue(t *testing.T) {
	net, mon, inputs := toyServerParts(t, 5)
	// The lane is held: the request is picked up fresh, then expires
	// while its batch waits for the lane.
	s, release := holdLanes(t, net, mon, Config{MaxBatch: 4})
	defer shutdownOK(t, s)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	fut, err := s.SubmitCtx(ctx, inputs[0])
	if err != nil {
		t.Fatalf("SubmitCtx: %v", err)
	}
	<-ctx.Done()
	release()
	if _, err := fut.Wait(); !errors.Is(err, ErrExpired) {
		t.Fatalf("expired-in-queue future resolved to %v, want ErrExpired", err)
	}
	st := s.Stats()
	if st.Expired != 1 {
		t.Fatalf("Stats.Expired %d, want 1", st.Expired)
	}
	if st.Served != 0 || st.Batches != 0 {
		t.Fatalf("expired request leaked into served=%d/batches=%d", st.Served, st.Batches)
	}

	// The pipeline is not poisoned: a live request still gets a verdict.
	fut, err = s.SubmitCtx(context.Background(), inputs[1])
	if err != nil {
		t.Fatalf("SubmitCtx after shed: %v", err)
	}
	if _, err := fut.Wait(); err != nil {
		t.Fatalf("live request after shed: %v", err)
	}
	if st := s.Stats(); st.Served != 1 || st.Expired != 1 {
		t.Fatalf("served=%d expired=%d after live request, want 1/1", st.Served, st.Expired)
	}
}

// TestSubmitCtxFlood races hundreds of deadline-bearing submits against
// the pipeline (run under -race): every accepted request resolves to
// exactly a verdict or ErrExpired, and the counters tile — submitted =
// served + expired.
func TestSubmitCtxFlood(t *testing.T) {
	net, mon, inputs := toyServerParts(t, 6)
	s, err := New(net, mon, Config{MaxBatch: 8, QueueDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	var (
		wg              sync.WaitGroup
		mu              sync.Mutex
		served, expired uint64
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// A spread of deadlines around the pipeline's natural latency,
			// so some expire in the queue, some at the lane, some serve.
			d := time.Duration(i%5) * time.Millisecond
			ctx, cancel := context.WithTimeout(context.Background(), d)
			defer cancel()
			fut, err := s.SubmitCtx(ctx, inputs[i%len(inputs)])
			if err != nil {
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Errorf("submit %d: %v", i, err)
				}
				return
			}
			_, err = fut.Wait()
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				served++
			case errors.Is(err, ErrExpired):
				expired++
			default:
				t.Errorf("future %d resolved to %v, want verdict or ErrExpired", i, err)
			}
		}(i)
	}
	wg.Wait()
	shutdownOK(t, s)
	st := s.Stats()
	if st.Served != served || st.Expired != expired {
		t.Fatalf("stats served=%d expired=%d, futures saw %d/%d", st.Served, st.Expired, served, expired)
	}
	if st.Submitted != st.Served+st.Expired {
		t.Fatalf("submitted=%d != served=%d + expired=%d", st.Submitted, st.Served, st.Expired)
	}
	if served == 0 {
		t.Fatal("flood served nothing — deadlines too tight to exercise the serve path")
	}
}
