package main

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync/atomic"
	"time"

	"napmon/internal/core"
	"napmon/internal/tensor"
	"napmon/internal/wire"
)

// request is one frame the wire client sends: the tenant it routes to,
// the input, and the verdict the reference computed for it.
type request struct {
	tenant uint32
	x      *tensor.Tensor
	want   core.Verdict
}

// wireLoad describes one phase on one TCP connection. rate > 0 makes it
// an open loop at that many requests a second (window then only bounds
// the client's bookkeeping); rate == 0 makes it a closed loop with at
// most window requests outstanding, ending after dur or, when count is
// set, after exactly count requests (warm-up).
type wireLoad struct {
	dur    time.Duration
	count  int
	skip   time.Duration // latencies of requests due before this are not kept
	rate   float64
	window int
	pick   func(i int) request
	tr     *tracer
}

// phase is what any measured phase reports back.
type phase struct {
	attempted, failed int
	lat               []float64 // ms, one per completed operation
	late              []float64 // ms, open loop only: generator lateness
	rates             []float64 // verdicts/s per sub-window, closed loop only
	overloaded        int       // error frames carrying ErrCodeOverloaded
}

// subWindows is how many equal sub-windows a closed-loop phase is cut
// into; the throughput reported is their median.
const subWindows = 6

// replyGrace bounds the wait for replies still outstanding when the
// sending side stops; what has not arrived by then counts as failed.
const replyGrace = 5 * time.Second

// openLoopSlots bounds the requests an open loop may have unanswered
// before the generator blocks (and its lateness shows it): above the
// gateway's own 1024 in-flight cap plus what the socket buffers hold.
const openLoopSlots = 1 << 13

// runWire drives one phase over conn with one writer (the caller) and
// one reader goroutine. Every reply is decoded and compared with the
// reference verdict; error frames, mismatches and replies that never
// arrive count as failed. Latency runs from when a request was due
// (open loop) or created (closed loop) to its decoded verdict.
func runWire(conn net.Conn, l wireLoad) (phase, error) {
	slots := l.window
	if l.rate > 0 {
		slots = openLoopSlots
	}
	if l.count > 0 {
		l.dur = time.Hour
	}
	var (
		dueAt    = make([]atomic.Int64, slots) // ns since start
		wroteAt  = make([]atomic.Int64, slots)
		rootID   = make([]atomic.Int64, slots)
		tokens   = make(chan struct{}, slots)
		answered atomic.Int64
		total    atomic.Int64
		start    = time.Now()
		res      phase
		readErr  = make(chan error, 1)
	)
	total.Store(-1)
	var wbuf, rbuf *spanBuf
	if l.tr != nil {
		wbuf, rbuf = l.tr.buf(), l.tr.buf()
	}
	rel := func(t time.Time) int64 { return int64(t.Sub(start)) }
	var off int64 // of this phase's clock on the trace's
	if l.tr != nil {
		off = l.tr.since(start)
	}
	win := newWindows(start, l.dur, subWindows)

	go func() { // reader: sole owner of conn reads and of res
		var buf []byte
		for {
			if t := total.Load(); t >= 0 && answered.Load() == t {
				readErr <- nil
				return
			}
			h, payload, err := wire.ReadFrame(conn, buf)
			if err != nil {
				var ne net.Error
				if errors.As(err, &ne) && ne.Timeout() {
					err = nil // the writer's deadline: stop waiting for stragglers
				}
				readErr <- err
				return
			}
			got := time.Now()
			buf = payload[:0]
			slot := int(h.ID) % slots
			req := l.pick(int(h.ID))
			ok := false
			switch h.Type {
			case wire.TypeWatchResp:
				v, err := wire.DecodeWatchResp(payload)
				ok = err == nil && sameVerdict(v, req.want)
			case wire.TypeErr:
				if code, _, err := wire.DecodeErr(payload); err == nil && code == wire.ErrCodeOverloaded {
					res.overloaded++
				}
			}
			done := time.Now()
			if !ok {
				res.failed++
			}
			due := dueAt[slot].Load()
			if due >= int64(l.skip) {
				res.lat = append(res.lat, float64(rel(done)-due)/1e6)
			}
			// Replies come back a batch at a time; crediting a verdict to
			// the whole interval its request was in flight keeps a window's
			// rate from being quantized to whole batches.
			win.add(start.Add(time.Duration(due)), done, 1)
			if rbuf != nil {
				root := rootID[slot].Load()
				rbuf.add("client.wait", l.tr.nextID(), root, int64(h.ID), off+wroteAt[slot].Load(), off+rel(got))
				rbuf.add("client.decode", l.tr.nextID(), root, int64(h.ID), off+rel(got), off+rel(done))
				rbuf.add("request", root, 0, int64(h.ID), off+due, off+rel(done))
			}
			answered.Add(1)
			<-tokens
		}
	}()

	sched := newSchedule(start, max(l.rate, 1))
	var frame []byte
	var werr, rerr error
	readerGone := false
	sent := 0
	for {
		due := time.Now()
		if l.rate > 0 {
			if sent >= sched.count(l.dur) {
				break
			}
			due = sched.wait(sent, time.Now, time.Sleep)
		} else if due.Sub(start) >= l.dur || (l.count > 0 && sent == l.count) {
			break
		}
		select {
		case tokens <- struct{}{}:
		case rerr = <-readErr: // the reader gave up; nothing will free a slot
			readerGone = true
		}
		if readerGone {
			break
		}
		slot := sent % slots
		req := l.pick(sent)
		encStart := time.Now()
		if l.rate == 0 {
			due = encStart // a closed loop's request exists once its slot is free
		}
		dueAt[slot].Store(rel(due))
		if wbuf != nil {
			rootID[slot].Store(l.tr.nextID())
		}
		frame, werr = wire.AppendWatchReq(frame[:0], uint32(sent), req.tenant, req.x.Shape(), req.x.Data())
		if werr != nil {
			break
		}
		encEnd := time.Now()
		if l.rate > 0 && due.Sub(start) >= l.skip {
			res.late = append(res.late, ms(lateness(due, encEnd)))
		}
		if _, werr = conn.Write(frame); werr != nil {
			break
		}
		wrote := time.Now()
		wroteAt[slot].Store(rel(wrote))
		if wbuf != nil {
			root := rootID[slot].Load()
			wbuf.add("client.encode", l.tr.nextID(), root, int64(sent), off+rel(encStart), off+rel(encEnd))
			wbuf.add("client.write", l.tr.nextID(), root, int64(sent), off+rel(encEnd), off+rel(wrote))
		}
		sent++
	}
	total.Store(int64(sent))
	if answered.Load() == int64(sent) {
		conn.SetReadDeadline(time.Now()) // wake a reader with nothing left to wait for
	} else {
		conn.SetReadDeadline(time.Now().Add(replyGrace))
	}
	if !readerGone {
		rerr = <-readErr
	}
	conn.SetReadDeadline(time.Time{})
	res.attempted = sent
	res.failed += sent - int(answered.Load()) // replies that never came
	if l.rate == 0 {
		res.rates = win.rates()
	}
	if werr != nil {
		return res, fmt.Errorf("wire client write: %w", werr)
	}
	if rerr != nil {
		return res, fmt.Errorf("wire client read: %w", rerr)
	}
	return res, nil
}

// sameVerdict reports whether a served verdict equals the reference in
// every field the wire carries.
func sameVerdict(got, want core.Verdict) bool {
	return got.Class == want.Class && got.Monitored == want.Monitored &&
		got.OutOfPattern == want.OutOfPattern && got.Epoch == want.Epoch &&
		slices.Equal(got.Pattern, want.Pattern)
}
