package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"napmon"
	"napmon/internal/core"
	"napmon/internal/nn"
	"napmon/internal/obs"
	"napmon/internal/rng"
	"napmon/internal/tensor"
	"napmon/internal/wire"
)

// toyFiles trains the small 3-class dense network the serve and wire
// suites use, builds its γ=1 monitor, and writes both where -model /
// -monitor (and a PUT body) can load them — the daemon under test boots
// through the same file path production does, minus the self-training.
// The returned inputs are float32-representable, so the JSON plane
// (float64) and the wire plane (float32) see the same numbers.
func toyFiles(t *testing.T, seed uint64) (modelPath, monitorPath string, inputs [][]float64) {
	t.Helper()
	r := rng.New(seed)
	centers := [][4]float64{{2, 0, -2, 0}, {-2, 2, 0, -1}, {0, -2, 2, 1}}
	gen := func(n int) []nn.Sample {
		out := make([]nn.Sample, n)
		for i := range out {
			x := tensor.New(4)
			for j := range x.Data() {
				x.Data()[j] = float64(float32(r.NormScaled(centers[i%3][j], 0.6)))
			}
			out[i] = nn.Sample{Input: x, Label: i % 3}
		}
		return out
	}
	train := gen(300)
	network := nn.New(
		nn.NewDense(4, 16, r), nn.NewReLU(),
		nn.NewDense(16, 10, r), nn.NewReLU(),
		nn.NewDense(10, 3, r),
	)
	nn.Train(network, train, nn.TrainConfig{Epochs: 15, BatchSize: 16, LR: 0.05, Seed: seed})
	mon, err := core.Build(network, train, core.Config{Layer: 3, Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	modelPath, monitorPath = filepath.Join(dir, "toy.model"), filepath.Join(dir, "toy.monitor")
	if err := network.SaveFile(modelPath); err != nil {
		t.Fatal(err)
	}
	if err := mon.SaveFile(monitorPath); err != nil {
		t.Fatal(err)
	}
	for _, s := range gen(8) {
		inputs = append(inputs, s.Input.Data())
	}
	return modelPath, monitorPath, inputs
}

// booted is a daemon started through run on ephemeral loopback ports.
type booted struct {
	http, tcp string
	cancel    context.CancelFunc
	done      chan error // run's return value
}

// boot starts run(cfg) — the function main calls — with every listener
// on 127.0.0.1:0 (the wire listener only when wirePlane is set) and waits
// for its ready callback. Cleanup cancels and waits for the drain.
func boot(t *testing.T, cfg config, wirePlane bool) *booted {
	t.Helper()
	cfg.addr = "127.0.0.1:0"
	if wirePlane {
		cfg.tcp = "127.0.0.1:0"
	}
	if cfg.drain == 0 {
		cfg.drain = 30 * time.Second
	}
	ctx, cancel := context.WithCancel(context.Background())
	b := &booted{cancel: cancel, done: make(chan error, 1)}
	ready := make(chan struct{})
	cfg.ready = func(h, tc string) {
		b.http, b.tcp = "http://"+h, tc
		close(ready)
	}
	go func() { b.done <- run(ctx, cfg) }()
	select {
	case <-ready:
	case err := <-b.done:
		cancel()
		t.Fatalf("daemon exited before it was ready: %v", err)
	case <-time.After(time.Minute):
		cancel()
		t.Fatal("daemon not ready after 1m")
	}
	t.Cleanup(func() { b.stop(t) })
	return b
}

// stop cancels the daemon's context and returns what run returned; a
// repeat call (the registered cleanup) is a no-op.
func (b *booted) stop(t *testing.T) error {
	t.Helper()
	if b.done == nil {
		return nil
	}
	b.cancel()
	select {
	case err := <-b.done:
		b.done = nil
		return err
	case <-time.After(time.Minute):
		t.Fatal("daemon did not drain within 1m of cancel")
		return nil
	}
}

// bootToy boots a leader serving the toy model as the default tenant.
func bootToy(t *testing.T, seed uint64) (*booted, string, string, [][]float64) {
	t.Helper()
	model, monitor, inputs := toyFiles(t, seed)
	return boot(t, config{modelPath: model, monitorPath: monitor, shape: []int{4}}, true), model, monitor, inputs
}

// call issues one HTTP request and returns status and body.
func call(t *testing.T, method, url string, body any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// callJSON is call plus a status assertion and a JSON decode into dst
// (nil to skip the decode).
func callJSON(t *testing.T, method, url string, body any, want int, dst any) {
	t.Helper()
	status, out := call(t, method, url, body)
	if status != want {
		t.Fatalf("%s %s: status %d, want %d: %s", method, url, status, want, out)
	}
	if dst != nil {
		if err := json.Unmarshal(out, dst); err != nil {
			t.Fatalf("%s %s: %v in %s", method, url, err, out)
		}
	}
}

func httpWatch(t *testing.T, b *booted, tenant string, x []float64) watchResponse {
	t.Helper()
	var v watchResponse
	callJSON(t, "POST", b.http+"/v1/models/"+tenant+"/watch", watchRequest{Shape: []int{len(x)}, Input: x}, 200, &v)
	return v
}

func httpStats(t *testing.T, b *booted, tenant string) statsResponse {
	t.Helper()
	var st statsResponse
	callJSON(t, "GET", b.http+"/v1/models/"+tenant+"/stats", nil, 200, &st)
	return st
}

// exchange writes one request frame to a wire connection and returns
// the response frame's header and payload.
func exchange(t *testing.T, c net.Conn, frame []byte) (wire.Header, []byte) {
	t.Helper()
	if _, err := c.Write(frame); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	h, payload, err := wire.ReadFrame(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	return h, payload
}

// dial opens a wire connection to addr, closed when the test ends.
func dial(t *testing.T, addr string) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// wireWatch sends one watch frame for tenant id and decodes the verdict;
// an error frame fails the test.
func wireWatch(t *testing.T, c net.Conn, id uint32, x []float64) core.Verdict {
	t.Helper()
	frame, err := wire.AppendWatchReq(nil, 7, id, []int{len(x)}, x)
	if err != nil {
		t.Fatal(err)
	}
	h, payload := exchange(t, c, frame)
	if h.Type != wire.TypeWatchResp || h.ID != 7 {
		t.Fatalf("watch over %s: frame type %d id %d: %s", c.RemoteAddr().Network(), h.Type, h.ID, errFrame(h, payload))
	}
	v, err := wire.DecodeWatchResp(payload)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// errFrame renders an error frame for failure messages ("" otherwise).
func errFrame(h wire.Header, payload []byte) string {
	if h.Type != wire.TypeErr {
		return ""
	}
	code, msg, _ := wire.DecodeErr(payload)
	return fmt.Sprintf("error frame code %d: %s", code, msg)
}

// wantErrFrame asserts the response is an error frame with the code.
func wantErrFrame(t *testing.T, h wire.Header, payload []byte, code uint8) string {
	t.Helper()
	if h.Type != wire.TypeErr {
		t.Fatalf("frame type %d, want an error frame (code %d)", h.Type, code)
	}
	got, msg, err := wire.DecodeErr(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got != code {
		t.Fatalf("error frame code %d (%s), want %d", got, msg, code)
	}
	return msg
}

// flipped returns p with bit i inverted, in both planes' encodings.
func flipped(t *testing.T, p string, i int) (string, core.Pattern) {
	t.Helper()
	b := []byte(p)
	b[i] ^= '0' ^ '1'
	pat, err := napmon.ParsePattern(string(b))
	if err != nil {
		t.Fatal(err)
	}
	return string(b), pat
}

// (i) One input, two planes, one verdict: the JSON route and a TCP
// frame must agree on class, out-of-pattern, the pattern bits and the
// epoch they were judged at.
func TestVerdictIdenticalAcrossPlanes(t *testing.T) {
	b, _, _, inputs := bootToy(t, 21)
	tcp := dial(t, b.tcp)
	for i, x := range inputs {
		hv := httpWatch(t, b, "default", x)
		epoch := httpStats(t, b, "default").Epoch
		wv := wireWatch(t, tcp, wire.DefaultTenant, x)
		if wv.Class != hv.Class || wv.Monitored != hv.Monitored || wv.OutOfPattern != hv.OutOfPattern ||
			wv.Pattern.String() != hv.Pattern || wv.Epoch != epoch {
			t.Fatalf("input %d: wire verdict %+v (pattern %s) differs from HTTP %+v at epoch %d",
				i, wv, wv.Pattern, hv, epoch)
		}
	}
}

// (ii) A tenant hot-loaded over HTTP is reachable over the wire by the
// id the model list reports, and DELETE unroutes it on both planes.
func TestHotLoadedTenantRoutesOnWire(t *testing.T) {
	b, model, monitor, inputs := bootToy(t, 22)
	tcp := dial(t, b.tcp)
	callJSON(t, "PUT", b.http+"/v1/models/beta", loadRequest{Model: model, Monitor: monitor, Shape: []int{4}}, 201, nil)
	var list struct{ Models []modelInfo }
	callJSON(t, "GET", b.http+"/v1/models", nil, 200, &list)
	var id uint32
	for _, m := range list.Models {
		if m.Name == "beta" {
			id = m.ID
		}
	}
	if id == wire.DefaultTenant {
		t.Fatalf("model list %+v reports no distinct wire id for beta", list.Models)
	}
	if wv, hv := wireWatch(t, tcp, id, inputs[0]), httpWatch(t, b, "beta", inputs[0]); wv.Pattern.String() != hv.Pattern || wv.Class != hv.Class {
		t.Fatalf("beta: wire verdict %+v differs from HTTP %+v", wv, hv)
	}

	callJSON(t, "DELETE", b.http+"/v1/models/beta", nil, 204, nil)
	frame, _ := wire.AppendWatchReq(nil, 9, id, []int{4}, inputs[0])
	h, payload := exchange(t, tcp, frame)
	wantErrFrame(t, h, payload, wire.ErrCodeUnknownTenant)
	if status, out := call(t, "POST", b.http+"/v1/models/beta/watch", watchRequest{Shape: []int{4}, Input: inputs[0]}); status != 404 {
		t.Fatalf("watch on an unloaded tenant: status %d, want 404: %s", status, out)
	}
	wireWatch(t, tcp, wire.DefaultTenant, inputs[0]) // the default tenant is untouched
}

// (iii) A learn on either plane advances the epoch the other plane
// serves, and both land in the replication delta log.
func TestLearnCrossesPlanes(t *testing.T) {
	b, _, _, inputs := bootToy(t, 23)
	tcp := dial(t, b.tcp)
	seen := httpWatch(t, b, "default", inputs[0])
	before := httpStats(t, b, "default").Epoch

	p1, _ := flipped(t, seen.Pattern, 0)
	var lr learnResponse
	callJSON(t, "POST", b.http+"/v1/models/default/learn", learnRequest{Class: seen.Class, Patterns: []string{p1}}, 200, &lr)
	if lr.Epoch != before+1 {
		t.Fatalf("HTTP learn published epoch %d, want %d", lr.Epoch, before+1)
	}
	if v := wireWatch(t, tcp, wire.DefaultTenant, inputs[0]); v.Epoch != lr.Epoch {
		t.Fatalf("wire verdict at epoch %d after an HTTP learn published %d", v.Epoch, lr.Epoch)
	}

	_, p2 := flipped(t, seen.Pattern, 1)
	frame, err := wire.AppendLearnReq(nil, 11, wire.DefaultTenant, seen.Class, []core.Pattern{p2})
	if err != nil {
		t.Fatal(err)
	}
	h, payload := exchange(t, tcp, frame)
	if h.Type != wire.TypeLearnResp {
		t.Fatalf("wire learn: frame type %d: %s", h.Type, errFrame(h, payload))
	}
	epoch, absorbed, err := wire.DecodeLearnResp(payload)
	if err != nil || epoch != before+2 || absorbed != 1 {
		t.Fatalf("wire learn: epoch %d absorbed %d err %v, want epoch %d absorbed 1", epoch, absorbed, err, before+2)
	}
	if got := httpStats(t, b, "default").Epoch; got != epoch {
		t.Fatalf("HTTP stats at epoch %d after a wire learn published %d", got, epoch)
	}

	status, stream := call(t, "GET", fmt.Sprintf("%s/v1/models/default/deltas?since=%d", b.http, before), nil)
	if status != 200 {
		t.Fatalf("deltas: status %d: %s", status, stream)
	}
	entries, err := napmon.DecodeDeltaStream(stream, len(seen.Pattern))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Epoch != before+1 || entries[1].Epoch != before+2 {
		t.Fatalf("delta log holds %+v, want the HTTP learn then the wire learn", entries)
	}
}

// (iv) A follower is read-only on both planes: HTTP writes answer 409,
// a wire learn answers an error frame, and its epoch does not move.
func TestFollowerRefusesWritesOnBothPlanes(t *testing.T) {
	leader, model, monitor, inputs := bootToy(t, 24)
	f := boot(t, config{follow: leader.http, followPoll: 50 * time.Millisecond}, true)
	seen := httpWatch(t, f, "default", inputs[0])
	before := httpStats(t, f, "default").Epoch
	if lv := httpWatch(t, leader, "default", inputs[0]); lv != seen {
		t.Fatalf("follower verdict %+v differs from its leader's %+v", seen, lv)
	}

	p, pat := flipped(t, seen.Pattern, 0)
	for _, w := range []struct {
		method, path string
		body         any
	}{
		{"POST", "/v1/models/default/learn", learnRequest{Class: seen.Class, Patterns: []string{p}}},
		{"PUT", "/v1/models/beta", loadRequest{Model: model, Monitor: monitor, Shape: []int{4}}},
		{"DELETE", "/v1/models/default", nil},
	} {
		if status, out := call(t, w.method, f.http+w.path, w.body); status != 409 {
			t.Fatalf("follower %s %s: status %d, want 409: %s", w.method, w.path, status, out)
		}
	}
	frame, err := wire.AppendLearnReq(nil, 13, wire.DefaultTenant, seen.Class, []core.Pattern{pat})
	if err != nil {
		t.Fatal(err)
	}
	h, payload := exchange(t, dial(t, f.tcp), frame)
	if msg := wantErrFrame(t, h, payload, wire.ErrCodeBadRequest); !strings.Contains(msg, "read-only") {
		t.Fatalf("wire learn refused with %q, want the read-only error", msg)
	}
	if got := httpStats(t, f, "default").Epoch; got != before {
		t.Fatalf("follower epoch moved %d -> %d under refused writes", before, got)
	}
}

// (v) The pre-fleet aliases are gone.
func TestLegacyRoutesRemoved(t *testing.T) {
	model, monitor, _ := toyFiles(t, 25)
	b := boot(t, config{modelPath: model, monitorPath: monitor, shape: []int{4}}, false)
	for _, r := range [][2]string{{"POST", "/watch"}, {"POST", "/learn"}, {"GET", "/stats"}} {
		if status, _ := call(t, r[0], b.http+r[1], nil); status != 404 {
			t.Errorf("%s %s: status %d, want 404", r[0], r[1], status)
		}
	}
}

// (vi) Cancelling ctx drains gateway → HTTP → registry and, with leak
// checking on, run only returns nil once the goroutine count is back at
// its pre-boot baseline.
func TestDrainReturnsToGoroutineBaseline(t *testing.T) {
	model, monitor, inputs := toyFiles(t, 26)
	b := boot(t, config{modelPath: model, monitorPath: monitor, shape: []int{4}, leakCheck: true}, true)
	tcp := dial(t, b.tcp)
	for _, x := range inputs {
		httpWatch(t, b, "default", x)
		wireWatch(t, tcp, wire.DefaultTenant, x)
	}
	if err := b.stop(t); err != nil {
		t.Fatal(err)
	}
	// Drained means closed: the wire socket the test still holds is dead
	// and the HTTP port refuses.
	tcp.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := tcp.Read(make([]byte, 1)); err == nil {
		t.Fatal("wire connection still open after the drain")
	}
	if resp, err := http.Get(b.http + "/healthz"); err == nil {
		resp.Body.Close()
		t.Fatal("HTTP listener still answering after the drain")
	}
}

// TestReloadDuringUnloadKeepsShapeGate is the regression test for the
// daemon-side shape map: Unload frees the name before it blocks on the
// drain, so a PUT of the same name can land while the DELETE handler is
// still waiting — and the DELETE's cleanup then wiped the new tenant's
// gate, rejecting every later watch. The gate now lives on the tenant.
func TestReloadDuringUnloadKeepsShapeGate(t *testing.T) {
	model, monitor, inputs := toyFiles(t, 27)
	d := &daemon{reg: napmon.NewRegistry(napmon.RegistryConfig{}), obsReg: obs.NewRegistry()}
	srv := httptest.NewServer(d.routes(false))
	defer srv.Close()
	defer d.reg.Close(context.Background())
	b := &booted{http: srv.URL}
	load := loadRequest{Model: model, Monitor: monitor, Shape: []int{4}}
	callJSON(t, "PUT", b.http+"/v1/models/x", load, 201, nil)

	pin, err := d.reg.Acquire("x")
	if err != nil {
		t.Fatal(err)
	}
	deleted := make(chan int, 1)
	go func() { // no t.Fatal off the test goroutine: a failed request reports status -1
		req, _ := http.NewRequest("DELETE", b.http+"/v1/models/x", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			deleted <- -1
			return
		}
		resp.Body.Close()
		deleted <- resp.StatusCode
	}()
	for d.reg.Peek("x") != nil { // unpublished, but the pin holds the drain open
		time.Sleep(time.Millisecond)
	}
	callJSON(t, "PUT", b.http+"/v1/models/x", load, 201, nil)
	pin.Release()
	if status := <-deleted; status != 204 {
		t.Fatalf("DELETE: status %d, want 204", status)
	}
	httpWatch(t, b, "x", inputs[0])
}

// TestMonitorFileIsTheSnapshot pins the one persisted format end to end:
// a Monitor.SaveFile file boots a daemon (bootToy), the bytes that daemon
// serves on GET .../snapshot are a monitor file a second daemon boots
// from, and the second daemon resumes at the first one's epoch — learned
// pattern included — with identical verdicts.
func TestMonitorFileIsTheSnapshot(t *testing.T) {
	first, model, _, inputs := bootToy(t, 29)
	seen := httpWatch(t, first, "default", inputs[0])
	p, _ := flipped(t, seen.Pattern, 0)
	callJSON(t, "POST", first.http+"/v1/models/default/learn", learnRequest{Class: seen.Class, Patterns: []string{p}}, 200, nil)

	status, snap := call(t, "GET", first.http+"/v1/models/default/snapshot", nil)
	if status != 200 {
		t.Fatalf("snapshot: status %d: %s", status, snap)
	}
	path := filepath.Join(t.TempDir(), "resumed.monitor")
	if err := os.WriteFile(path, snap, 0o644); err != nil {
		t.Fatal(err)
	}
	second := boot(t, config{modelPath: model, monitorPath: path, shape: []int{4}}, false)

	if a, b := httpStats(t, first, "default").Epoch, httpStats(t, second, "default").Epoch; a != 2 || b != a {
		t.Fatalf("first daemon at epoch %d, the one booted from its snapshot at %d, want both 2", a, b)
	}
	for i, x := range inputs {
		if a, b := httpWatch(t, first, "default", x), httpWatch(t, second, "default", x); a != b {
			t.Fatalf("input %d: verdict %+v from the snapshot-booted daemon, %+v from its source", i, b, a)
		}
	}
}

// TestLoadHonoursGammaZero pins the PUT body's gamma semantics: absent
// means 2, an explicit 0 is the paper's exact-match monitor (Table II's
// first column) and must not be mistaken for "unset", negative is a 400.
func TestLoadHonoursGammaZero(t *testing.T) {
	model, monitor, _ := toyFiles(t, 28)
	b := boot(t, config{modelPath: model, monitorPath: monitor, shape: []int{4}}, false)
	zero, neg := 0, -1
	callJSON(t, "PUT", b.http+"/v1/models/exact", loadRequest{Selftrain: 0.005, Gamma: &zero}, 201, nil)
	if st := httpStats(t, b, "exact"); st.Gamma != 0 {
		t.Fatalf("tenant loaded with gamma 0 serves gamma %d", st.Gamma)
	}
	if status, out := call(t, "PUT", b.http+"/v1/models/bad", loadRequest{Selftrain: 0.005, Gamma: &neg}); status != 400 {
		t.Fatalf("gamma -1: status %d, want 400: %s", status, out)
	}
}

// TestConfigValidate table-tests the flag cross-checks run applies
// before it trains a model or binds a listener.
func TestConfigValidate(t *testing.T) {
	ok := config{selftrain: 0.05, dataset: "mnist"}
	with := func(mut func(*config)) config { c := ok; mut(&c); return c }
	for _, tc := range []struct {
		name string
		cfg  config
		want string // substring of the error; "" = valid
	}{
		{"selftrain", ok, ""},
		{"files", config{modelPath: "m", monitorPath: "z", dataset: "mnist"}, ""},
		{"follow", config{follow: "http://leader"}, ""},
		{"wire plane, chaos on tcp, leak check", with(func(c *config) {
			c.tcp, c.chaosSeed, c.chaosFaults, c.leakCheck = ":2", 1, 40, true
		}), ""},
		{"follow with chaos", config{follow: "http://leader", chaosSeed: 1, chaosFaults: 30}, ""},
		{"no model source", config{dataset: "mnist"}, "need either"},
		{"model without monitor", config{modelPath: "m", dataset: "mnist"}, "need either"},
		{"follow with selftrain", config{follow: "http://leader", selftrain: 0.05}, "-follow mirrors"},
		{"follow with model", config{follow: "http://leader", modelPath: "m"}, "-follow mirrors"},
		{"follow with monitor", config{follow: "http://leader", monitorPath: "z"}, "-follow mirrors"},
		{"follow with shape", config{follow: "http://leader", shape: []int{4}}, "-follow mirrors"},
		{"chaos without a surface", with(func(c *config) { c.chaosSeed = 1 }), "no fault surface"},
		{"chaos budget without a seed", with(func(c *config) { c.tcp, c.chaosFaults = ":2", 40 }), "set -chaos-seed"},
		{"leak check without the wire plane", with(func(c *config) { c.leakCheck = true }), "-leak-check"},
	} {
		err := tc.cfg.validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
	// run applies it first: a contradictory config must fail without
	// touching the (unroutable) leader or the (absent) model files.
	if err := run(context.Background(), config{follow: "http://127.0.0.1:1", selftrain: 0.05}); err == nil || !strings.Contains(err.Error(), "-follow mirrors") {
		t.Fatalf("run accepted a contradictory config: %v", err)
	}
}
