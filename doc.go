// Package napmon is a Go implementation of runtime neuron activation
// pattern monitoring (Cheng, Nührenberg, Yasuoka — "Runtime Monitoring
// Neuron Activation Patterns", DATE 2019).
//
// A monitor answers, at inference time, whether a neural network's
// classification decision is supported by prior similarities in training:
// after training, the training set is fed through the network once more
// and the binary ReLU on/off activation pattern of a close-to-output layer
// is recorded per class in a binary decision diagram (BDD). Each class's
// pattern set is enlarged to its γ-comfort zone — every pattern within
// Hamming distance γ of a visited one — using one memoized Hamming-ball
// pass over the BDD. In deployment, an input whose activation pattern falls
// outside the predicted class's comfort zone is flagged as out-of-pattern:
// the network is extrapolating beyond its training experience.
//
// The package exposes the full workflow:
//
//	net, _ := napmon.BuildNetwork(specs, rng) // or napmon.LoadModel
//	napmon.Train(net, samples, cfg)          // SGD training
//	mon, _ := napmon.BuildMonitor(net, samples, napmon.Config{
//		Layer: 3,   // a hidden ReLU layer
//		Gamma: 2,   // Hamming enlargement
//	})
//	v := mon.Watch(net, input)
//	if v.OutOfPattern {
//		// decision not supported by training data
//	}
//
// A monitor is born serving: BuildMonitor compiles every comfort zone
// into a flat branch-program query plan, lets its BDD manager go and
// publishes the zones as serving epoch 1. For serving under heavy
// traffic, use the batched front end: whole micro-batches flow through
// the batched GEMM
// inference path (stripe-fused convolution that never stores the im2col
// matrix, packed 4×16/4×8 micro kernels for every multiply-accumulate,
// fused bias+ReLU and bias+ReLU+maxpool epilogues, pooled
// allocation-free scratch — see DESIGN.md, "Batched inference") with
// membership queries grouped per predicted class against the compiled
// plans (DESIGN.md, "Compiled query plans + sharded build"). Membership
// batches 32 wide or more are answered bit-sliced — the branch program
// is walked once per 64 queries over transposed lane masks rather than
// once per query (DESIGN.md, "Bit-sliced zone evaluation"); narrower
// batches keep the scalar walk, whose per-query cost beats the
// transpose overhead. WatchBatch may be issued from any
// number of goroutines concurrently (safety by construction — the
// serving path performs no writes; see DESIGN.md, "Build → publish
// epoch 1 → serve: concurrency model"):
//
//	verdicts := napmon.WatchBatch(net, mon, inputs)
//
// For a long-lived service, napmon.Serve wraps the same fast path in a
// streaming front end: an async bounded request queue with result
// futures, a work-conserving micro-batching coalescer (a batch leaves
// the moment a lane is idle and grows, up to MaxBatch requests, only
// while every lane is busy — no timer anywhere) and per-lane network
// replicas, so trickle traffic is answered at inference latency and
// bulk traffic from many concurrent users still rides full batches:
//
//	srv, _ := napmon.Serve(net, mon, napmon.ServerConfig{MaxBatch: 64})
//	fut, err := srv.Submit(input) // safe from any goroutine
//	if err == nil {
//		if v, err := fut.Wait(); err == nil && v.OutOfPattern {
//			// decision not supported by training data
//		}
//	}
//	srv.Shutdown(ctx) // drains accepted requests, then stops
//
// A monitor is not a static artifact: the online-update path
// absorbs newly observed activation patterns while serving continues
// (serve-while-retraining). Monitor.Update / Monitor.UpdateBatch add
// the new patterns to the touched comfort zones' overlays (a zone keeps
// up to 64 learned patterns beside its plans and folds them in when a
// learn would push it past that) and publish the result as a new
// serving epoch with one atomic pointer swap; each batch loads one epoch
// (every Verdict carries its epoch id), a retired epoch is plans and
// overlays the garbage collector takes once its last batch returns,
// and the updated monitor answers exactly like one built from all
// patterns in one shot.
// Monitor.UpdateGamma re-levels γ the same way. Through a Server the
// same flow is Server.Update (observable via ServerStats.Epoch and
// ServerStats.Updates):
//
//	mon, _ := napmon.BuildMonitor(net, samples, cfg) // serves epoch 1
//	epoch, err := mon.Update(class, pattern)         // publishes epoch 2
//
// See the Monitor.Update example and DESIGN.md, "Online updates: epochs,
// grace periods".
//
// # Fleet serving: registry, snapshots, replication
//
// One process can serve many models. napmon.ServeFleet (or
// napmon.NewRegistry + Registry.Load) runs a named fleet of
// (network, monitor, server-config) tenants behind one Registry, each
// with its own serving lane, queue caps and per-tenant metrics:
//
//	fleet, _ := napmon.ServeFleet(napmon.RegistryConfig{}, map[string]napmon.TenantConfig{
//		"traffic-signs": {Net: signNet, Mon: signMon},
//		"front-car":     {Net: carNet, Mon: carMon, Serve: napmon.ServerConfig{MaxBatch: 32}},
//	})
//	t, _ := fleet.Acquire("traffic-signs") // pins the tenant against unload
//	fut, _ := t.Server().Submit(input)
//	t.Release()
//
// Tenants hot-load and hot-unload while traffic flows: lookups pin a
// tenant, and Unload publishes the removal immediately but drains the
// server through a grace period, so in-flight batches always complete.
// napmon.Serve is the one-tenant form — it loads the DefaultTenant of a
// fresh registry, so single-model callers keep the old API unchanged.
//
// A monitor serializes to a compact snapshot (compiled zone
// query plans + bit-packed patterns, checksummed) with
// Monitor.Snapshot / Tenant.Snapshot, and loads back frozen at the same
// epoch with napmon.LoadSnapshot / Registry.LoadSnapshot. Each tenant
// also keeps a bounded epoch-keyed delta log of its online updates
// (Tenant.DeltasSince, framed by EncodeDeltaStream); a follower that
// warm-starts from a snapshot and applies the stream in order with
// Tenant.ApplyDelta converges bit-for-bit with the leader's monitor —
// this is the replication protocol behind `napmon-serve -follow`. See
// DESIGN.md, "Multi-tenant registry, snapshots, replication".
//
// The cmd/napmon-serve binary is the one serving daemon: it builds one
// registry and exposes it over HTTP/JSON — the versioned tenant-scoped
// API (POST /v1/models/{name}/watch and /learn, GET
// /v1/models/{name}/stats, GET /v1/models, PUT/DELETE
// /v1/models/{name} for hot load/unload, plus the replication endpoints
// GET /v1/models/{name}/snapshot and /deltas?since=N), GET /metrics and
// GET /healthz — and, when -tcp names a listen address, over the
// binary wire protocol on TCP (internal/wire) routed by tenant id through that
// same registry, so a tenant hot-loaded over HTTP answers wire frames
// at once. The pre-fleet unprefixed routes (POST /watch, POST /learn,
// GET /stats) are gone; they answer 404. Shutdown drains wire, then
// HTTP, then every tenant's queue. Started with -follow <leader-url>
// it warm-starts every tenant from leader snapshots and polls the
// delta streams, serving read-only on both planes.
//
// # Observability
//
// The daemon renders one internal/obs registry as Prometheus text on
// GET /metrics — registry, every tenant's serving series and (with the
// wire plane on) napmon_gateway_* series on the same page — and mounts
// net/http/pprof on that listener behind an opt-in -pprof flag; the
// HTTP port is never a wire-protocol port. Recording is lock-free — counters are
// atomic adds, latency distributions land in log-bucketed atomic
// histograms (bounded relative quantile error), and every series is a
// scrape-time callback over them, so the hot path pays nothing for
// being observable. The serve pipeline stamps every request through
// its stages; /stats and /metrics report p50/p99 per stage.
//
// The Registry registers each tenant's serving series once per name,
// with a tenant label, and resolves the name at scrape time: a tenant
// loaded from flags, by PUT or from a leader's snapshot exports the
// same series, a reload is followed (per-class series gain the new
// classes), and unloading a name removes every series it labels, so a
// fleet that loads and unloads many names keeps a bounded page. The
// serving series, every one labelled tenant="<name>":
//
//	napmon_requests_submitted_total        counter    requests accepted into the queue
//	napmon_requests_served_total           counter    requests answered with a verdict
//	napmon_requests_rejected_total         counter    submits refused (server closed)
//	napmon_serve_expired_total             counter    queued requests shed because their context
//	                                                  expired before inference (SubmitCtx)
//	napmon_batches_total                   counter    micro-batches dispatched to lanes
//	napmon_batch_size                      histogram  requests per micro-batch a lane ran — the
//	                                                  load signal: 1 = lanes idle, MaxBatch =
//	                                                  saturated
//	napmon_queue_depth                     gauge      requests waiting in the bounded queue
//	napmon_lanes                           gauge      serving lanes (network replicas)
//	napmon_stage_duration_seconds          histogram  per-stage latency by stage label. Per
//	                                                  request: queue (enqueue → coalescer
//	                                                  pickup), coalesce (pickup → hand-off to a
//	                                                  lane, i.e. waiting for an idle lane; no
//	                                                  timer) and total. Per batch: dispatch
//	                                                  (hand-off → lane running), inference and
//	                                                  zone_query. A lone request's first five
//	                                                  add up to its total
//	napmon_watched_total                   counter    verdicts per monitored class (class label)
//	napmon_oop_total                       counter    out-of-pattern verdicts per class (class label)
//	napmon_unmonitored_total               counter    verdicts the monitor abstained on
//	napmon_inference_seconds_total         counter    cumulative forward-pass + extraction time
//	napmon_zone_query_seconds_total        counter    cumulative zone membership query time
//	napmon_gamma_level                     gauge      Hamming enlargement of the serving epoch
//	napmon_epoch                           gauge      id of the serving epoch
//	napmon_epoch_swaps_total               counter    epochs published by online updates
//	napmon_epoch_swap_seconds_total        counter    cumulative epoch publication wall time
//	napmon_epoch_swap_last_seconds         gauge      wall time of the latest publication
//	napmon_zone_plans_recompiled_total     counter    zone folds: plans an update rebuilt,
//	                                                  folding in the learned overlay
//	napmon_zone_overlay_patterns           gauge      learned patterns pending in the serving
//	                                                  epoch's zone overlays
//	napmon_patterns_absorbed_total         counter    activation patterns absorbed by updates
//	napmon_bdd_nodes                       gauge      branches across the serving epoch's plans,
//	                                                  overlays left out
//	napmon_bdd_unique_hits_total           counter    unique-table hits, all build sessions
//	napmon_bdd_unique_misses_total         counter    unique-table misses (node creations), ditto
//	napmon_bdd_cache_hits_total            counter    computed-table hits, ditto
//	napmon_bdd_cache_misses_total          counter    computed-table misses, ditto
//	napmon_bdd_compiles_total              counter    query plans compiled, ditto
//	napmon_tenant_up                       gauge      1 while the named tenant serves
//
// The wire gateway's series (unlabelled; one gateway serves every
// tenant):
//
//	napmon_gateway_frames_received_total   counter    frames past stream header validation
//	napmon_gateway_frames_responded_total  counter    response frames handed to a socket
//	napmon_gateway_tcp_writes_total        counter    TCP socket writes, each carrying every
//	                                                  response frame queued on its conn
//	napmon_gateway_frames_malformed_total  counter    rejected stream headers/payloads
//	napmon_gateway_conns_reaped_total      counter    TCP conns torn down by a read-idle or
//	                                                  write deadline
//	napmon_gateway_conns_overbudget_total  counter    TCP conns torn down for exhausting their
//	                                                  malformed-frame budget
//	napmon_gateway_tcp_conns               gauge      live TCP connections
//
// The fleet-level series (unlabelled):
//
//	napmon_registry_tenants                gauge      tenants currently loaded
//	napmon_registry_generation             gauge      fleet generation (bumps on load/unload)
//	napmon_registry_loads_total            counter    tenants loaded
//	napmon_registry_unloads_total          counter    tenants unloaded
//	napmon_registry_lookups_total          counter    Acquire/AcquireID pins
//
// cmd/napmon-metricslint fetches an exposition, validates it with the
// strict internal parser, and cross-checks the series of the tenant a
// /v1/models/{name}/stats document names against it; the napmon-soak
// harness scrapes before/after a run and reconciles the default
// tenant's served delta against its own per-frame accounting.
// See DESIGN.md, "Observability: registry, histograms, tracing".
//
// Everything is implemented from scratch on the standard library: the
// tensor math and neural-network substrate, the ROBDD engine (open-
// addressed unique table, lossy computed table, cache statistics — see
// DESIGN.md, "BDD manager internals"), the synthetic MNIST-like/
// GTSRB-like datasets and the highway front-car case study the
// experiments run on. See DESIGN.md for the system inventory; every PR
// is gated by .github/workflows/ci.yml, mirrored locally by `make ci`:
// gofmt, vet + staticcheck (make lint), build, race-detector tests and
// the GEMM/forward parity, serve, wire and daemon suites at 1–4 workers
// (make test-split) on a Go 1.22/1.23/1.24 matrix, plus a fuzz-smoke
// job (make test-fuzz: the differential BDD fuzzer, the pattern and
// wire-frame round trips and the snapshot/delta-stream decoders), a
// coverage gate (make cover-check against ci/coverage-baseline.txt) and
// a smoke job on the built binaries (make smoke: a strict zero-loss
// TCP soak with server-vs-client accounting, /metrics validated
// and cross-checked against /stats, a seeded chaos soak, both drains
// under a goroutine leak check; then make bench-verdicts: every output
// of bench/'s five workloads against its oracle — bench/ is the one
// benchmark, and no time is gated). Replication is a Go test: in
// cmd/napmon-serve a two-tenant leader snapshots into a follower,
// streams learn deltas, and the follower must converge to the leader's
// epoch with identical verdicts and per-tenant metrics live on both
// daemons, also through a seeded fault schedule on its leader client.
package napmon
