package serve

import (
	"time"

	"napmon/internal/core"
)

// coalesce is the single goroutine between the request queue and the
// lanes. Dispatch is lane-driven, never clock-driven: a batch leaves the
// moment a lane announces itself idle, and keeps growing — up to
// MaxBatch — while every lane is busy. So a lone request on an idle
// server is handed off at once, and batches form exactly when lanes are
// the bottleneck. On an idle token the batch is topped up with whatever
// is already queued, stamped, and handed to the waiting lane. When the
// queue closes (Shutdown) the tail batch still waits for a lane; on
// abort everything still held or queued is failed instead of served.
// Every request it sheds (expired at pickup) or fails (abort) completes
// here, on this goroutine, through its done function. Each request is
// stamped on pickup (req.deq) and each batch at hand-off, feeding the
// queue/coalesce/dispatch stage histograms.
func (s *Server) coalesce() {
	defer s.wg.Done()
	defer close(s.batches)
	var pending []request
	open := true // the queue has not closed yet
	// admit stamps one picked-up request and batches it unless its
	// deadline has already fired.
	admit := func(req request) {
		req.deq = time.Now()
		if !s.shedExpired(req) {
			pending = append(pending, req)
		}
	}
	for open || len(pending) > 0 {
		// A nil channel never fires: stop reading at the MaxBatch cap (or
		// once the queue closed), and leave idle tokens alone while there
		// is nothing to hand off.
		queue, idle := s.queue, s.idle
		if !open || len(pending) >= s.cfg.MaxBatch {
			queue = nil
		}
		if len(pending) == 0 {
			idle = nil
		}
		select {
		case req, ok := <-queue:
			if !ok {
				open = false
				continue
			}
			admit(req)
		case <-idle:
		topUp:
			for open && len(pending) < s.cfg.MaxBatch {
				select {
				case req, ok := <-s.queue:
					if !ok {
						open = false
						break topUp
					}
					admit(req)
				default:
					break topUp
				}
			}
			// The token's lane is at (or on its way to) its receive and
			// batches buffers one slot per lane, so this never blocks.
			s.batches <- batch{reqs: pending, flushed: time.Now()}
			pending = nil
		case <-s.aborted:
			failAll(pending)
			s.drainFail()
			return
		}
	}
}

// drainFail consumes the queue until it closes, failing every request.
// Only called after abort: the queue is guaranteed to close because
// Shutdown already rejects new Submits and abort unblocks pending ones.
func (s *Server) drainFail() {
	for req := range s.queue {
		req.done(core.Verdict{}, ErrServerClosed)
	}
}

// failAll completes every request in the batch with ErrServerClosed.
func failAll(reqs []request) {
	for _, req := range reqs {
		req.done(core.Verdict{}, ErrServerClosed)
	}
}

// shedExpired sheds one request whose context is already done: it
// completes with ErrExpired, Stats.Expired counts it, and it never
// reaches a batch. Expired requests are excluded from the latency
// histograms — they measure served traffic, and a pile of
// deadline-exceeded sheds should read as goodput loss (Expired), not as
// a latency regression. Reports whether the request was shed.
func (s *Server) shedExpired(req request) bool {
	if req.ctx == nil {
		return false
	}
	select {
	case <-req.ctx.Done():
		s.expired.Add(1)
		req.done(core.Verdict{}, ErrExpired)
		return true
	default:
		return false
	}
}

// shedExpiredBatch filters a batch in place at lane pickup, shedding
// (as shedExpired) every request whose deadline fired between coalescing
// and dispatch, and returns the still-live remainder.
func (s *Server) shedExpiredBatch(reqs []request) []request {
	live := reqs[:0]
	for _, req := range reqs {
		if s.shedExpired(req) {
			continue
		}
		live = append(live, req)
	}
	return live
}

// serveLane is one serving shard's loop: announce idleness, take the
// micro-batch the coalescer hands over, feed it whole through the
// batched GEMM inference path (Monitor.WatchBatchPooledTimed over
// Network.ForwardBatch) on the lane's private replica and scratch pool,
// call every request's done function with its verdict, back to back on
// this goroutine, and record metrics. So a front end whose done
// functions queue frames sees the whole batch queued before the lane
// takes its next batch, and one socket write can carry it; a done that
// blocked would stall this lane and every request behind it, which is
// why the contract forbids it (SubmitFunc). The batch's width therefore
// translates directly into GEMM width — no per-input goroutine fan-out;
// on multi-core hosts the GEMM kernels parallelize internally. The
// lane's pool and input slice stay warm across batches of any width, so
// a steady lane allocates almost nothing per batch beyond the verdicts
// and the published counter pair. After an abort, remaining batches are
// failed without inference so Shutdown returns promptly.
//
// Stage accounting per batch: dispatch (hand-off → here), inference and
// zone_query (split reported by the monitor) and the batch width are
// batch-level observations; queue (enq → deq), coalesce (deq → hand-off)
// and total (enq → verdict) are recorded per request.
func (s *Server) serveLane(ln *lane) {
	defer s.wg.Done()
	for {
		// The token is what lets a batch leave the coalescer, so it goes
		// out before the lane blocks for work. idle buffers one token per
		// lane: the send never blocks.
		s.idle <- struct{}{}
		b, ok := <-s.batches
		if !ok {
			return
		}
		select {
		case <-s.aborted:
			failAll(b.reqs)
			continue
		default:
		}
		// Last chance to shed: deadlines that fired while the batch waited
		// for this lane. A fully expired batch skips inference AND the
		// batches counter, so MeanBatchSize keeps describing batches that
		// actually ran.
		b.reqs = s.shedExpiredBatch(b.reqs)
		if len(b.reqs) == 0 {
			continue
		}
		start := time.Now()
		s.stages.record(stageDispatch, start.Sub(b.flushed))
		s.batchSize.Record(int64(len(b.reqs)))
		inputs := ln.inputs[:0]
		for _, req := range b.reqs {
			inputs = append(inputs, req.input)
		}
		var bt core.BatchTiming
		verdicts := s.mon.WatchBatchPooledTimed(ln.net, inputs, ln.scratch, &bt)
		// A parked lane must not pin the request tensors it last served.
		clear(inputs)
		ln.inputs = inputs[:0]
		s.stages.hist[stageInference].Record(bt.InferenceNs)
		s.stages.hist[stageZoneQuery].Record(bt.ZoneQueryNs)
		now := time.Now()
		for _, req := range b.reqs {
			s.stages.record(stageQueue, req.deq.Sub(req.enq))
			s.stages.record(stageCoalesce, b.flushed.Sub(req.deq))
			s.stages.record(stageTotal, now.Sub(req.enq))
		}
		// Publish (served, batches) as one immutable pair: a CAS loop
		// instead of two independent atomic adds, so Stats can read a
		// consistent snapshot for MeanBatchSize. It goes out before any
		// completion runs, so a caller holding its verdict reads Stats
		// that count it.
		for {
			old := s.counts.Load()
			next := &servedCounts{
				served:  old.served + uint64(len(b.reqs)),
				batches: old.batches + 1,
			}
			if s.counts.CompareAndSwap(old, next) {
				break
			}
		}
		for i, req := range b.reqs {
			req.done(verdicts[i], nil)
		}
	}
}
