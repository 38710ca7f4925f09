package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"time"

	"napmon/internal/bdd"
	"napmon/internal/core"
	"napmon/internal/rng"
	"napmon/internal/serve"
	"napmon/internal/tensor"
	"napmon/internal/wire"
)

// The per-layer numbers come from probes, not from inside the product:
// each probe times calls into one layer's public functions on the
// workloads' own seeded inputs. The peel pushes the same inputs through
// successively deeper entries — gateway round trip -> serve Submit+Wait
// -> core.WatchBatchPooledTimed -> nn.ForwardBatchCapture ->
// tensor.MatMulInto, and Zone.ContainsBatch -> bdd.Compiled.EvalBatch —
// and a layer's self time is its entry's time minus the next entry's.
// The probe set is the same whichever workload a traced run names, so
// every per-layer metric is measured on every run.

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, value float64, unit string) { m[name] = metric{value, unit} }

// probeRates are the open-loop rates the wire ladder offers; the limit
// is the time-to-verdict p99 a rate must hold to count as sustained.
var probeRates = []float64{rateLight, rateMid, 800, 1400}

const p99LimitMs = 25

// timeOp calls fn in samples of reps calls for about d (at least five
// samples) and returns the median nanoseconds per call.
func timeOp(d time.Duration, reps int, fn func()) float64 {
	var samples []float64
	for start := time.Now(); time.Since(start) < d || len(samples) < 5; {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		samples = append(samples, float64(time.Since(t0))/float64(reps))
	}
	return median(samples)
}

// interleave times the calls round-robin for about d (at least five
// rounds) and returns each call's median nanoseconds. The rungs of a
// peel are subtracted from one another, so they must see the same
// machine: measured one after the other, a drift in CPU speed between
// them would be booked as some layer's self time.
func interleave(d time.Duration, fns ...func()) []float64 {
	samples := make([][]float64, len(fns))
	for start := time.Now(); time.Since(start) < d || len(samples[0]) < 5; {
		for i, fn := range fns {
			t0 := time.Now()
			fn()
			samples[i] = append(samples[i], float64(time.Since(t0)))
		}
	}
	out := make([]float64, len(fns))
	for i := range out {
		out[i] = median(samples[i])
	}
	return out
}

func randomTensor(r *rng.Source, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	for i := range t.Data() {
		t.Data()[i] = r.Norm()
	}
	return t
}

// cycle returns n inputs, repeating xs as needed.
func cycle(xs []*tensor.Tensor, n int) []*tensor.Tensor {
	out := make([]*tensor.Tensor, n)
	for i := range out {
		out[i] = xs[i%len(xs)]
	}
	return out
}

// submitWait pushes one batch through a server and waits for every
// verdict; it returns the first error.
func submitWait(srv *serve.Server, inputs []*tensor.Tensor) error {
	futs, err := srv.SubmitAll(inputs)
	if err != nil {
		return err
	}
	for _, f := range futs {
		if _, err := f.Wait(); err != nil {
			return err
		}
	}
	return nil
}

// runProbes measures every per-layer metric. Each probe takes a fixed
// multiple of secs/40, about 1.2 x secs in all. The result's rungs hold
// the peel entries in nanoseconds per verdict, keyed as workloadInfo.rung.
//
// The probes run in three sections, each with only its own fixture
// alive and a collection before it: with all three monitors on the heap
// a collector cycle is long enough to push the 800/s open loop into a
// backlog it does not leave.
func runProbes(seed uint64, secs float64, out io.Writer) (*probes, error) {
	p := &probes{m: metrics{}, rungs: map[string]float64{}, out: out, seed: seed,
		u: time.Duration(secs * float64(time.Second) / 40), r: rng.New(seed + 7)}
	for _, section := range []func() error{p.stream, p.fleet, p.zone} {
		runtime.GC()
		if err := section(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// wire runs one wire phase and adds its checked replies to the count.
func (p *probes) wire(conn net.Conn, l wireLoad) (phase, error) {
	ph, err := runWire(conn, l)
	p.attempted, p.failed = p.attempted+ph.attempted, p.failed+ph.failed
	return ph, err
}

type probes struct {
	m     metrics
	rungs map[string]float64
	out   io.Writer
	seed  uint64
	u     time.Duration
	r     *rng.Source

	// attempted and failed count the wire replies the probes checked.
	attempted, failed int
}

// fixture generates, sets up and references one workload for probing.
func (p *probes) fixture(w workload) error {
	if err := w.generate(p.seed, io.Discard); err != nil {
		return err
	}
	if err := w.setUp(); err != nil {
		return err
	}
	return w.reference()
}

const peelBatch = streamWin // the peel's batch: one full coalescer flush

// stream probes tensor, nn, core's watch, serve and wire on network 1.
func (p *probes) stream() error {
	m, u, r := p.m, p.u, p.r
	so := &streamOpen{}
	defer so.tearDown()
	if err := p.fixture(so); err != nil {
		return err
	}
	const b = peelBatch
	in64 := cycle(so.f.inputs, b)
	pool := tensor.NewPool()

	// tensor: the two im2col lowerings that feed network 1's conv GEMMs
	// at batch 64 (the GEMMs themselves are the peel's innermost rung).
	var im2colNs float64
	for _, s := range [][3]int{{1, 28, 24}, {40, 12, 8}} { // channels, in side, out side
		x, cols := randomTensor(r, b, s[0], s[1], s[1]), tensor.New(s[0]*25, b*s[2]*s[2])
		im2colNs += timeOp(u/2, 1, func() { tensor.Im2ColBatchInto(cols, x, 5, 5, 1) })
	}
	m.set("tensor.im2col_ms", im2colNs/1e6, "ms")

	// nn: the batched forward pass with the monitored layer captured.
	forward := func(n int, d time.Duration) float64 {
		in := cycle(so.f.inputs, n)
		return timeOp(d, 1, func() {
			logits, acts := so.f.net.ForwardBatchCapture(in, so.f.layer, pool)
			pool.Put(logits)
			pool.Put(acts)
		})
	}
	m.set("nn.forward_b1_ms", forward(1, u/2)/1e6, "ms")
	m.set("nn.forward_b256_ms", forward(256, 2*u)/1e6, "ms")
	row, neurons := randomTensor(r, zoneWidth).Data(), so.mon.Neurons()
	m.set("core.pattern_extract_ns", timeOp(u/4, 1024, func() { core.PatternOfRow(row, neurons) }), "ns")

	// wire codecs on one network-1 request and its verdict.
	x, v := so.f.inputs[0], so.want[0]
	var req, resp []byte
	m.set("wire.req_encode_ns", timeOp(u/4, 64, func() {
		req, _ = wire.AppendWatchReq(req[:0], 1, wire.DefaultTenant, x.Shape(), x.Data())
	}), "ns")
	m.set("wire.req_decode_ns", timeOp(u/4, 64, func() { wire.DecodeWatchReq(req[wire.HeaderSize:]) }), "ns")
	m.set("wire.resp_encode_ns", timeOp(u/4, 64, func() { resp, _ = wire.AppendWatchResp(resp[:0], 1, v) }), "ns")
	m.set("wire.resp_decode_ns", timeOp(u/4, 64, func() { wire.DecodeWatchResp(resp[wire.HeaderSize:]) }), "ns")

	// serve without coalescing: one request at a time, MaxBatch 1.
	b1, err := serve.New(so.f.net, so.mon, serve.Config{MaxBatch: 1})
	if err != nil {
		return err
	}
	one := so.f.inputs[:1]
	b1Ns := timeOp(u, 1, func() {
		if e := submitWait(b1, one); e != nil {
			err = e
		}
	})
	shutdown(b1)
	if err != nil {
		return err
	}
	m.set("serve.submit_wait_b1_us", b1Ns/1e3, "us")

	// The wire ladder: open loop at each rate on a fresh stack. The
	// middle rate supplies the serve stage histograms and the wire tax.
	var dropped, malformed, overloaded, maxOK float64
	for _, rate := range probeRates {
		ph, err := so.openLoop(rate, 5*u, nil)
		p.attempted, p.failed = p.attempted+ph.attempted, p.failed+ph.failed
		if err != nil {
			return err
		}
		lat := sorted(ph.lat)
		p50, p99 := percentile(lat, 50), percentile(lat, 99)
		third := len(ph.lat) / 3
		growing := third > 0 && median(ph.lat[len(ph.lat)-third:]) > 2*median(ph.lat[:third])
		if p99 <= p99LimitMs && !growing && ph.failed == 0 {
			maxOK = rate
		}
		ct := so.st.gw.Counters()
		dropped, malformed, overloaded = dropped+float64(ct.Dropped), malformed+float64(ct.Malformed), overloaded+float64(ph.overloaded)
		tp, tail := tailPercentile(lat)
		fmt.Fprintf(p.out, "probe open loop %4.0f/s: n=%d p50=%.3fms p99=%.3fms p%g=%.3fms late_p99=%.3fms failed=%d\n",
			rate, len(lat), p50, p99, tp, tail, percentile(sorted(ph.late), 99), ph.failed)
		if rate != rateMid {
			continue
		}
		st := so.st.srv.Stats()
		for _, stage := range []string{"queue", "coalesce", "dispatch", "inference", "zone_query", "total"} {
			m.set("serve."+stage+"_p50_us", float64(st.Stages[stage].P50)/1e3, "us")
		}
		m.set("serve.total_p99_us", float64(st.Stages["total"].P99)/1e3, "us")
		m.set("serve.mean_batch", st.MeanBatchSize, "count")
		m.set("serve.rejected", float64(st.Rejected), "count")
		m.set("serve.expired", float64(st.Expired), "count")
		m.set("wire.tax_us", p50*1e3-float64(st.Stages["total"].P50)/1e3, "us")
		m.set("wire.client_p99_ms", p99, "ms")
		m.set("wire.gen_late_p99_ms", percentile(sorted(ph.late), 99), "ms")
	}
	m.set("wire.dropped", dropped, "count")
	m.set("wire.malformed", malformed, "count")
	m.set("wire.overloaded", overloaded, "count")
	m.set("wire.max_rate_ok", maxOK, "1/s")

	// The stream peel at batch 64, every rung on the same 64 inputs: one
	// window through the gateway, one SubmitAll through the server, one
	// pooled watch (with its own inference/zone split), one captured
	// forward pass, and network 1's two conv GEMMs and widest dense GEMM.
	if err := so.restack(); err != nil {
		return err
	}
	var bt core.BatchTiming
	a1, b1m, d1 := randomTensor(r, 40, 25), randomTensor(r, 25, b*24*24), tensor.New(40, b*24*24)
	a2, b2m, d2 := randomTensor(r, 20, 1000), randomTensor(r, 1000, b*8*8), tensor.New(20, b*8*8)
	a3, w3, d3 := randomTensor(r, b, 320), randomTensor(r, 320, 320), tensor.New(b, 320)
	const flops = 2 * (40*25*b*24*24 + 20*1000*b*8*8 + b*320*320)
	ns := interleave(8*u,
		func() {
			if _, e := p.wire(so.st.conn, wireLoad{count: b, window: b, pick: so.pick}); e != nil {
				err = e
			}
		},
		func() {
			if e := submitWait(so.st.srv, in64); e != nil {
				err = e
			}
		},
		func() { so.mon.WatchBatchPooledTimed(so.f.net, in64, pool, &bt) },
		func() {
			logits, acts := so.f.net.ForwardBatchCapture(in64, so.f.layer, pool)
			pool.Put(logits)
			pool.Put(acts)
		},
		func() { tensor.MatMulInto(d1, a1, b1m) },
		func() { tensor.MatMulInto(d2, a2, b2m) },
		func() { tensor.MatMulTransBInto(d3, a3, w3) },
	)
	if err != nil {
		return err
	}
	gwNs, serveNs, coreNs, nnNs, gemmNs := ns[0]/b, ns[1]/b, ns[2]/b, ns[3]/b, (ns[4]+ns[5]+ns[6])/b
	m.set("tensor.matmul_gflops", flops/(gemmNs*b), "GFLOP/s")
	m.set("nn.forward_b64_ms", ns[3]/1e6, "ms")
	m.set("core.watch_b64_ms", ns[2]/1e6, "ms")
	m.set("core.inference_share", float64(bt.InferenceNs)/float64(bt.InferenceNs+bt.ZoneQueryNs), "ratio")
	m.set("core.zone_query_share", float64(bt.ZoneQueryNs)/float64(bt.InferenceNs+bt.ZoneQueryNs), "ratio")
	p.rungs["rung.stream_gateway_ns"], p.rungs["rung.core_ns"] = gwNs, coreNs
	peel(m, p.out, "stream", gwNs, []rung{
		{"wire", serveNs}, {"serve", coreNs}, {"core", nnNs}, {"nn", gemmNs}, {"tensor", 0}})
	return nil
}

// fleet probes the registry and peels the fleet stack on tenant 0's
// tiny network.
func (p *probes) fleet() error {
	m, u := p.m, p.u
	ft := &fleetTiny{}
	defer ft.tearDown()
	if err := p.fixture(ft); err != nil {
		return err
	}
	const b = peelBatch
	var err error
	acquireNs := timeOp(2*u, 1024, func() { // the pin every routed frame pays
		t, e := ft.reg.AcquireID(ft.ids[3])
		if e != nil {
			err = e
			return
		}
		t.Release()
	})
	if err != nil {
		return err
	}
	m.set("registry.acquire_ns", acquireNs, "ns")

	// The fleet peel: one window of 256 frames through the gateway, then
	// 64 of tenant 0's inputs through its server, monitor and network.
	tin := cycle(ft.inputs[0], b)
	tenant, err := ft.reg.AcquireID(ft.ids[0])
	if err != nil {
		return err
	}
	defer tenant.Release()
	pool := tensor.NewPool()
	ns := interleave(4*u,
		func() {
			if _, e := p.wire(ft.conn, wireLoad{count: fleetWin, window: fleetWin, pick: ft.pick}); e != nil {
				err = e
			}
		},
		func() {
			if e := submitWait(tenant.Server(), tin); e != nil {
				err = e
			}
		},
		func() { ft.mons[0].WatchBatchPooledTimed(ft.nets[0], tin, pool, nil) },
		func() {
			logits, acts := ft.nets[0].ForwardBatchCapture(tin, 1, pool)
			pool.Put(logits)
			pool.Put(acts)
		},
	)
	if err != nil {
		return err
	}
	gwNs, serveNs, coreNs, nnNs := ns[0]/fleetWin, ns[1]/b, ns[2]/b, ns[3]/b
	p.rungs["rung.fleet_gateway_ns"] = gwNs
	peel(m, p.out, "fleet", gwNs, []rung{
		{"wire", serveNs + acquireNs}, {"registry", serveNs}, {"serve", coreNs}, {"core", nnNs}, {"nn", 0}})
	return nil
}

// zone probes bdd and core's zones, snapshots and updates on the zone
// workloads' monitor.
func (p *probes) zone() error {
	m, u := p.m, p.u
	zq := &zoneLearnMix{}
	if err := p.fixture(zq); err != nil {
		return err
	}
	// The zone peel: the query set of class 0 through Zone.ContainsBatch,
	// then through a plan compiled from the same root.
	z, pats, res := zq.mon.Zone(0), zq.byClass[0], zq.out[0]
	var plan *bdd.Compiled
	m.set("bdd.compile_ms", timeOp(u/2, 1, func() { plan = z.Manager().Compile(z.Root())[0] })/1e6, "ms")
	m.set("bdd.plan_len", float64(plan.Len()), "count")
	ns := interleave(2*u,
		func() { z.ContainsBatch(pats, res) },
		func() { plan.EvalBatch(pats, res) },
		func() { plan.EvalBatchScalar(pats, res) },
	)
	containsNs, slicedNs := ns[0]/float64(len(pats)), ns[1]/float64(len(pats))
	m.set("bdd.sliced_ns_per_query", slicedNs, "ns")
	m.set("bdd.scalar_ns_per_query", ns[2]/float64(len(pats)), "ns")
	m.set("peel.zone.core_ns", containsNs-slicedNs, "ns")
	m.set("peel.zone.bdd_ns", slicedNs, "ns")
	p.rungs["rung.zone_contains_ns"] = containsNs

	// Snapshots, then updates: updates grow the arena, so they go last.
	var snap bytes.Buffer
	var err error
	m.set("core.snapshot_encode_ms", timeOp(u/2, 1, func() {
		snap.Reset()
		if e := zq.mon.Snapshot(&snap, nil); e != nil {
			err = e
		}
	})/1e6, "ms")
	m.set("core.snapshot_bytes", float64(snap.Len()), "B")
	m.set("core.snapshot_decode_ms", timeOp(u, 1, func() {
		if _, _, e := core.LoadSnapshot(bytes.NewReader(snap.Bytes())); e != nil {
			err = e
		}
	})/1e6, "ms")
	k := 0
	m.set("core.update_ms", timeOp(u, 1, func() {
		if _, e := zq.mon.UpdateBatch(map[int][]core.Pattern{k % zoneClasses: zq.deltas[k]}); e != nil {
			err = e
		}
		k++
	})/1e6, "ms")
	m.set("core.nodes_after", float64(zq.mon.StorageNodes()), "count")
	// A follower's warm start from the grown monitor, end to end.
	m.set("core.bootstrap_ms", timeOp(u, 1, func() {
		snap.Reset()
		if e := zq.mon.Snapshot(&snap, nil); e != nil {
			err = e
		}
		if _, _, e := core.LoadSnapshot(bytes.NewReader(snap.Bytes())); e != nil {
			err = e
		}
	})/1e6, "ms")
	return err
}

// rung is one layer of a peel and the time of the entry below it.
type rung struct {
	layer string
	below float64
}

// peel turns a ladder of entry times (ns per verdict, outermost first)
// into self times: each layer keeps what the entry below it does not
// account for. It records them as peel.<name>.<layer>_us and prints the
// table. Self times found by subtraction assume the entries do not
// overlap; a negative one means the outer entry overlaps, across cores
// or tenants, work the inner entry does serially.
func peel(m metrics, out io.Writer, name string, top float64, rungs []rung) {
	fmt.Fprintf(out, "peel %s: %.2f us per verdict at the outermost entry\n", name, top/1e3)
	m.set("peel."+name+".total_us", top/1e3, "us")
	entry := top
	for _, r := range rungs {
		self := entry - r.below
		m.set("peel."+name+"."+r.layer+"_us", self/1e3, "us")
		fmt.Fprintf(out, "  %-10s self %9.2f us  %5.1f%%\n", r.layer, self/1e3, 100*self/top)
		entry = r.below
	}
}
