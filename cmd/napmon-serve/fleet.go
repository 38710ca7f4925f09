package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"slices"
	"strconv"
	"time"

	"napmon"
	"napmon/internal/exp"
	"napmon/internal/obs"
	"napmon/internal/wire"
)

// daemon is one serving process: the fleet registry and the HTTP routes
// and wire gateway that front it.
type daemon struct {
	reg      *napmon.Registry
	obsReg   *obs.Registry
	serveCfg napmon.ServerConfig // flag-level knobs applied to every tenant

	// What run brought up, for drain (nil = never started). A non-nil fol
	// is also the mode switch: the daemon is a read-only follower.
	gw      *wire.Gateway
	httpSrv *http.Server
	fol     *follower
}

// routes builds the daemon mux: the tenant-scoped /v1 API plus the
// process-level /metrics and /healthz.
func (d *daemon) routes(pprofOn bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/models/{name}/watch", d.handleWatch)
	mux.HandleFunc("POST /v1/models/{name}/learn", d.handleLearn)
	mux.HandleFunc("GET /v1/models/{name}/stats", d.handleStats)
	mux.HandleFunc("GET /v1/models", d.handleList)
	mux.HandleFunc("PUT /v1/models/{name}", d.handleLoad)
	mux.HandleFunc("DELETE /v1/models/{name}", d.handleUnload)
	mux.HandleFunc("GET /v1/models/{name}/snapshot", d.handleSnapshot)
	mux.HandleFunc("GET /v1/models/{name}/deltas", d.handleDeltas)
	mux.HandleFunc("GET /v1/models/{name}/model", d.handleModel)

	mux.Handle("GET /metrics", d.obsReg.Handler())
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	if pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// errReadOnly is what a follower answers to a write on either plane: its
// monitors advance only by replicated leader deltas, so accepting a
// local write would fork the replica.
var errReadOnly = errors.New("read-only replication follower; write to the leader")

// readOnlyLane is a follower's tenant as the wire gateway sees it:
// watch and stats pass through, learn is refused exactly as the HTTP
// learn route refuses it.
type readOnlyLane struct{ *napmon.Tenant }

func (readOnlyLane) Learn(map[int][]napmon.Pattern) (uint64, error) { return 0, errReadOnly }

// resolveLane is the wire gateway's resolver: the same registry pin the
// HTTP handlers take, keyed by wire id.
func (d *daemon) resolveLane(id uint32) (wire.TenantLane, error) {
	t, err := d.reg.AcquireID(id)
	if err != nil {
		return nil, err
	}
	if d.fol != nil {
		return readOnlyLane{t}, nil
	}
	return t, nil
}

// acquire pins the named tenant for the duration of one request,
// answering 404 itself when the tenant is not loaded. Callers must
// Release the returned tenant.
func (d *daemon) acquire(w http.ResponseWriter, name string) *napmon.Tenant {
	t, err := d.reg.Acquire(name)
	if err != nil { // only ever ErrTenantNotFound: a closed registry has an empty table
		http.Error(w, fmt.Sprintf("model %q: %v", name, err), http.StatusNotFound)
		return nil
	}
	return t
}

// readOnly rejects mutating requests in follower mode.
func (d *daemon) readOnly(w http.ResponseWriter) bool {
	if d.fol != nil {
		http.Error(w, errReadOnly.Error(), http.StatusConflict)
	}
	return d.fol != nil
}

// watchRequest is the watch body: a flat row-major input plus its
// tensor shape (e.g. [1,28,28] for the MNIST-like network).
type watchRequest struct {
	Shape []int     `json:"shape"`
	Input []float64 `json:"input"`
}

// watchResponse mirrors napmon.Verdict for JSON consumers.
type watchResponse struct {
	Class        int    `json:"class"`
	Monitored    bool   `json:"monitored"`
	OutOfPattern bool   `json:"out_of_pattern"`
	Pattern      string `json:"pattern"`
}

func (d *daemon) handleWatch(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	t := d.acquire(w, name)
	if t == nil {
		return
	}
	defer t.Release()
	// The gate is the pinned tenant's own: a reload of the name while
	// this request runs cannot swap the shape out from under it.
	shape := t.Server().InputShape()
	want := 1
	for _, dim := range shape {
		want *= dim
	}
	// Cap the body before decoding: without a limit, one oversized
	// request allocates its whole float array (and can OOM the
	// daemon) before the element-count check below ever runs. ~25
	// bytes per JSON float is generous; 4 KiB covers the envelope.
	r.Body = http.MaxBytesReader(w, r.Body, int64(want)*25+4096)
	var req watchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad JSON: "+err.Error(), http.StatusBadRequest)
		return
	}
	// Check against the model's expected shape before building the
	// tensor: TensorFromSlice panics on a shape/len mismatch, and
	// shapes other than the model's would panic inside inference.
	if !slices.Equal(req.Shape, shape) {
		http.Error(w, fmt.Sprintf("input shape %v, model %q expects %v", req.Shape, name, shape), http.StatusBadRequest)
		return
	}
	if len(req.Input) != want {
		http.Error(w, fmt.Sprintf("shape %v needs %d input values, got %d", req.Shape, want, len(req.Input)), http.StatusBadRequest)
		return
	}
	// The HTTP request context rides into the pipeline: a client that
	// hangs up (or whose deadline fires) while its request is queued
	// is shed before inference instead of inferred into the void.
	fut, err := t.Server().SubmitCtx(r.Context(), napmon.TensorFromSlice(req.Input, req.Shape...))
	if err != nil {
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, napmon.ErrServerClosed):
			status = http.StatusServiceUnavailable
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			// 499-style: the client is gone; the write likely goes
			// nowhere, but the status keeps logs honest.
			status = http.StatusRequestTimeout
		}
		http.Error(w, err.Error(), status)
		return
	}
	v, err := fut.Wait()
	if err != nil {
		status := http.StatusServiceUnavailable
		if errors.Is(err, napmon.ErrExpired) {
			status = http.StatusRequestTimeout
		}
		http.Error(w, err.Error(), status)
		return
	}
	writeJSON(w, http.StatusOK, watchResponse{
		Class:        v.Class,
		Monitored:    v.Monitored,
		OutOfPattern: v.OutOfPattern,
		Pattern:      v.Pattern.String(),
	})
}

// learnRequest is the learn body: activation patterns (the 0/1 string
// form returned by watch) to absorb into one class's comfort zone.
type learnRequest struct {
	Class    int      `json:"class"`
	Patterns []string `json:"patterns"`
}

// learnResponse reports the published epoch after the update.
type learnResponse struct {
	Epoch    uint64 `json:"epoch"`
	Absorbed int    `json:"absorbed"`
}

func (d *daemon) handleLearn(w http.ResponseWriter, r *http.Request) {
	if d.readOnly(w) {
		return
	}
	t := d.acquire(w, r.PathValue("name"))
	if t == nil {
		return
	}
	defer t.Release()
	width := len(t.Monitor().Neurons())
	// Each pattern is width bytes of JSON string plus quoting; the cap
	// bounds one request to a generous batch without letting a rogue
	// client allocate unbounded pattern slices.
	r.Body = http.MaxBytesReader(w, r.Body, int64(width+16)*4096+4096)
	var req learnRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad JSON: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.Patterns) == 0 {
		http.Error(w, "no patterns", http.StatusBadRequest)
		return
	}
	pats := make([]napmon.Pattern, len(req.Patterns))
	for i, s := range req.Patterns {
		p, err := napmon.ParsePattern(s)
		if err != nil {
			http.Error(w, fmt.Sprintf("pattern %d: %v", i, err), http.StatusBadRequest)
			return
		}
		if len(p) != width {
			http.Error(w, fmt.Sprintf("pattern %d has %d bits, monitor watches %d neurons", i, len(p), width), http.StatusBadRequest)
			return
		}
		pats[i] = p
	}
	// Tenant.Learn (not Server.Update) so the published epoch also
	// lands in the tenant's delta log for replication followers.
	epoch, err := t.Learn(map[int][]napmon.Pattern{req.Class: pats})
	if err != nil {
		// Validation failures (unmonitored class) are the client's
		// fault; the update path has no server-side failure modes.
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, http.StatusOK, learnResponse{Epoch: epoch, Absorbed: len(pats)})
}

// statsResponse renders napmon.ServerStats with latencies both raw (ns)
// and human-readable, plus the per-stage breakdown, the monitor's
// verdict tallies and the fleet dimension (which tenant, fleet size).
type statsResponse struct {
	Tenant        string                `json:"tenant"`
	TenantID      uint32                `json:"tenant_id"`
	Tenants       int                   `json:"tenants"`
	Queued        int                   `json:"queued"`
	Submitted     uint64                `json:"submitted"`
	Served        uint64                `json:"served"`
	Rejected      uint64                `json:"rejected"`
	Expired       uint64                `json:"expired"`
	Batches       uint64                `json:"batches"`
	MeanBatchSize float64               `json:"mean_batch_size"`
	P50Ns         int64                 `json:"p50_ns"`
	P99Ns         int64                 `json:"p99_ns"`
	P50           string                `json:"p50"`
	P99           string                `json:"p99"`
	Stages        map[string]stageStats `json:"stages"`
	Monitored     uint64                `json:"monitored"`
	OutOfPattern  uint64                `json:"out_of_pattern"`
	Unmonitored   uint64                `json:"unmonitored"`
	Gamma         int                   `json:"gamma"`
	Lanes         int                   `json:"lanes"`
	Epoch         uint64                `json:"epoch"`
	Updates       uint64                `json:"updates"`
	Recompiled    uint64                `json:"recompiled"`
}

// stageStats is one pipeline stage's latency summary in stats.
type stageStats struct {
	P50Ns int64  `json:"p50_ns"`
	P99Ns int64  `json:"p99_ns"`
	P50   string `json:"p50"`
	P99   string `json:"p99"`
	Count uint64 `json:"count"`
}

func (d *daemon) handleStats(w http.ResponseWriter, r *http.Request) {
	t := d.acquire(w, r.PathValue("name"))
	if t == nil {
		return
	}
	defer t.Release()
	st := t.Server().Stats()
	stages := make(map[string]stageStats, len(st.Stages))
	for name, sl := range st.Stages {
		stages[name] = stageStats{
			P50Ns: sl.P50.Nanoseconds(),
			P99Ns: sl.P99.Nanoseconds(),
			P50:   sl.P50.String(),
			P99:   sl.P99.String(),
			Count: sl.Count,
		}
	}
	writeJSON(w, http.StatusOK, statsResponse{
		Tenant:        t.Name(),
		TenantID:      t.ID(),
		Tenants:       d.reg.Len(),
		Queued:        st.Queued,
		Submitted:     st.Submitted,
		Served:        st.Served,
		Rejected:      st.Rejected,
		Expired:       st.Expired,
		Batches:       st.Batches,
		MeanBatchSize: st.MeanBatchSize,
		P50Ns:         st.P50.Nanoseconds(),
		P99Ns:         st.P99.Nanoseconds(),
		P50:           st.P50.String(),
		P99:           st.P99.String(),
		Stages:        stages,
		Monitored:     st.Monitored,
		OutOfPattern:  st.OutOfPattern,
		Unmonitored:   st.Unmonitored,
		Gamma:         st.Gamma,
		Lanes:         st.Lanes,
		Epoch:         st.Epoch,
		Updates:       st.Updates,
		Recompiled:    st.Recompiled,
	})
}

// modelInfo is one entry of the GET /v1/models list. Shape rides along
// so replication followers can mirror the leader's input gate;
// Incarnation identifies the load (it changes on a DELETE+PUT reload,
// where epochs restart) so a follower can tell "nothing new" apart from
// "the tenant I synced no longer exists" and re-snapshot.
type modelInfo struct {
	Name        string `json:"name"`
	ID          uint32 `json:"id"`
	Incarnation uint64 `json:"incarnation"`
	Epoch       uint64 `json:"epoch"`
	Gamma       int    `json:"gamma"`
	Served      uint64 `json:"served"`
	Updates     uint64 `json:"updates"`
	Shape       []int  `json:"shape,omitempty"`
}

// infoOf renders a pinned tenant as its model-list entry.
func infoOf(t *napmon.Tenant) modelInfo {
	st := t.Server().Stats()
	return modelInfo{
		Name:        t.Name(),
		ID:          t.ID(),
		Incarnation: t.Incarnation(),
		Epoch:       st.Epoch,
		Gamma:       st.Gamma,
		Served:      st.Served,
		Updates:     st.Updates,
		Shape:       t.Server().InputShape(),
	}
}

func (d *daemon) handleList(w http.ResponseWriter, _ *http.Request) {
	names := d.reg.Names()
	out := make([]modelInfo, 0, len(names))
	for _, name := range names {
		t, err := d.reg.Acquire(name)
		if err != nil {
			continue // unloaded between Names and Acquire
		}
		out = append(out, infoOf(t))
		t.Release()
	}
	writeJSON(w, http.StatusOK, struct {
		Models []modelInfo `json:"models"`
	}{out})
}

// loadRequest names a tenant's model: either trained artifact paths on
// the daemon's filesystem or a selftrain scale, plus optional per-tenant
// serving knobs overriding the daemon flags. It is the PUT
// /v1/models/{name} body, and what the daemon's own model flags become
// at startup.
type loadRequest struct {
	Model     string  `json:"model,omitempty"`     // model file (napmon-train -model)
	Monitor   string  `json:"monitor,omitempty"`   // monitor file (napmon-train -monitor)
	Selftrain float64 `json:"selftrain,omitempty"` // in-process training scale
	Dataset   string  `json:"dataset,omitempty"`   // mnist (default) or gtsrb
	Seed      uint64  `json:"seed,omitempty"`
	Gamma     *int    `json:"gamma,omitempty"` // absent = 2; 0 is the paper's exact-match monitor
	Shape     []int   `json:"shape,omitempty"` // absent = the dataset's native shape
	MaxBatch  int     `json:"max_batch,omitempty"`
	Queue     int     `json:"queue,omitempty"`
	Lanes     int     `json:"lanes,omitempty"`
}

// load resolves req into a model and monitor, probes the shape gate
// against the model and publishes the tenant under name — the one path
// by which a model enters a non-follower daemon, at startup or by PUT.
func (d *daemon) load(name string, req loadRequest) (*napmon.Tenant, error) {
	if req.Dataset == "" {
		req.Dataset = "mnist"
	}
	gamma := 2
	if req.Gamma != nil {
		if gamma = *req.Gamma; gamma < 0 {
			return nil, fmt.Errorf("gamma %d: must be >= 0", gamma)
		}
	}
	shape := req.Shape
	if shape == nil {
		var err error
		if shape, err = exp.InputShape("", req.Dataset); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	net, mon, err := exp.LoadOrTrain(req.Model, req.Monitor, req.Selftrain, req.Dataset, req.Seed, gamma, log.Printf)
	if err != nil {
		return nil, err
	}
	if err := exp.ProbeShape(net, shape); err != nil {
		return nil, err
	}
	sc := d.serveCfg
	// Shape-mismatched inference panics in the tensor kernels; the
	// server-side gate turns an untrusted bad request (on either plane)
	// into a Submit error instead of a dead daemon.
	sc.InputShape = shape
	if req.MaxBatch > 0 {
		sc.MaxBatch = req.MaxBatch
	}
	if req.Queue > 0 {
		sc.QueueDepth = req.Queue
	}
	if req.Lanes > 0 {
		sc.Lanes = req.Lanes
	}
	t, err := d.reg.Load(name, napmon.TenantConfig{Net: net, Mon: mon, Serve: sc})
	if err != nil {
		return nil, err
	}
	log.Printf("loaded tenant %q (id %d) in %v", name, t.ID(), time.Since(start).Round(time.Millisecond))
	return t, nil
}

func (d *daemon) handleLoad(w http.ResponseWriter, r *http.Request) {
	if d.readOnly(w) {
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, 1<<16)
	var req loadRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad JSON: "+err.Error(), http.StatusBadRequest)
		return
	}
	t, err := d.load(r.PathValue("name"), req)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, napmon.ErrTenantExists) {
			status = http.StatusConflict
		}
		http.Error(w, err.Error(), status)
		return
	}
	writeJSON(w, http.StatusCreated, infoOf(t))
}

func (d *daemon) handleUnload(w http.ResponseWriter, r *http.Request) {
	if d.readOnly(w) {
		return
	}
	name := r.PathValue("name")
	if err := d.reg.Unload(r.Context(), name); err != nil {
		status := http.StatusNotFound
		if !errors.Is(err, napmon.ErrTenantNotFound) {
			status = http.StatusServiceUnavailable
		}
		http.Error(w, err.Error(), status)
		return
	}
	log.Printf("unloaded tenant %q", name)
	w.WriteHeader(http.StatusNoContent)
}

func (d *daemon) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	t := d.acquire(w, r.PathValue("name"))
	if t == nil {
		return
	}
	defer t.Release()
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := t.Snapshot(w); err != nil {
		// Headers are gone; all we can do is log and cut the stream so
		// the client sees a truncated (checksum-failing) snapshot.
		log.Printf("snapshot %q: %v", t.Name(), err)
	}
}

func (d *daemon) handleDeltas(w http.ResponseWriter, r *http.Request) {
	t := d.acquire(w, r.PathValue("name"))
	if t == nil {
		return
	}
	defer t.Release()
	since, err := strconv.ParseUint(r.URL.Query().Get("since"), 10, 64)
	if err != nil {
		http.Error(w, "bad since parameter: "+err.Error(), http.StatusBadRequest)
		return
	}
	entries, err := t.DeltasSince(since)
	if err != nil {
		if errors.Is(err, napmon.ErrDeltaGap) {
			// The bounded log no longer reaches back to the follower's
			// epoch: 410 tells it to re-sync from a fresh snapshot.
			http.Error(w, err.Error(), http.StatusGone)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	stream, err := napmon.EncodeDeltaStream(len(t.Monitor().Neurons()), entries)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(stream)
}

func (d *daemon) handleModel(w http.ResponseWriter, r *http.Request) {
	t := d.acquire(w, r.PathValue("name"))
	if t == nil {
		return
	}
	defer t.Release()
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := t.Network().Save(w); err != nil {
		log.Printf("model %q: %v", t.Name(), err)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Printf("encode response: %v", err)
	}
}
