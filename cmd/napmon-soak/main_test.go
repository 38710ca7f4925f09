package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"napmon/internal/core"
	"napmon/internal/nn"
	"napmon/internal/obs"
	"napmon/internal/registry"
	"napmon/internal/rng"
	"napmon/internal/serve"
	"napmon/internal/tensor"
	"napmon/internal/wire"
)

// TestJudge table-tests the soak's verdict: which accounting mismatches a
// report shows, and whether -strict and -chaos-check pass it.
func TestJudge(t *testing.T) {
	clean := report{Sent: 100, Received: 100,
		Server: &serverSide{ServedDelta: 100}}
	for _, tc := range []struct {
		name              string
		rep               report
		strict, chaos     bool
		mismatches        int
		failures          int
		failureSubstrings []string
	}{
		{name: "closed accounting passes strict", rep: clean, strict: true},
		{name: "closed accounting passes chaos-check", rep: clean, chaos: true},
		{name: "no metrics scraped, clean run", rep: report{Sent: 5, Received: 5}, strict: true},
		{
			name:       "served differs from received",
			rep:        report{Sent: 100, Received: 98, Server: &serverSide{ServedDelta: 100}},
			strict:     true,
			mismatches: 1, failures: 1,
			failureSubstrings: []string{"strict:", "accounting ok=false"},
		},
		{
			name:       "mismatch without a gate is reported but passes",
			rep:        report{Sent: 100, Received: 98, Server: &serverSide{ServedDelta: 100}},
			mismatches: 1,
		},
		{
			name:       "gateway sheds not seen as overload frames",
			rep:        report{Sent: 10, Received: 8, Overloaded: 1, Server: &serverSide{ServedDelta: 8, GwDroppedDelta: 2}},
			strict:     true,
			mismatches: 1, failures: 1,
		},
		{
			name:     "strict fails on a drop alone",
			rep:      report{Sent: 10, Received: 9, Dropped: 1, Server: &serverSide{ServedDelta: 9}},
			strict:   true,
			failures: 1, failureSubstrings: []string{"1 dropped"},
		},
		{
			name:     "chaos-check tolerates drops and server errors",
			rep:      report{Sent: 10, Received: 7, Dropped: 2, ServerErrors: 1, ConnErrors: 3, Server: &serverSide{ServedDelta: 9}},
			chaos:    true,
			failures: 0,
		},
		{
			name:  "frames abandoned on dead sessions inside the bound",
			rep:   report{Sent: 20, Received: 12, Dropped: 8, ConnErrors: 2, Server: &serverSide{ServedDelta: 15}},
			chaos: true,
		},
		{
			name:       "served beyond received plus dropped",
			rep:        report{Sent: 20, Received: 12, Dropped: 2, Server: &serverSide{ServedDelta: 15}},
			chaos:      true,
			mismatches: 1,
		},
		{
			name:       "strict keeps equality with frames dropped",
			rep:        report{Sent: 20, Received: 12, Dropped: 8, Server: &serverSide{ServedDelta: 15}},
			strict:     true,
			mismatches: 1, failures: 1,
			failureSubstrings: []string{"8 dropped", "accounting ok=false"},
		},
		{
			name:       "phantom responses",
			rep:        report{Sent: 10, Received: 10, Server: &serverSide{ServedDelta: 9}},
			chaos:      true,
			mismatches: 1, failures: 1,
			failureSubstrings: []string{"phantom"},
		},
		{
			name:     "malformed responses fail both gates",
			rep:      report{Sent: 10, Received: 9, Malformed: 1, Server: &serverSide{ServedDelta: 9}},
			strict:   true,
			chaos:    true,
			failures: 2, failureSubstrings: []string{"strict:", "unreadable verdict"},
		},
		{
			name:     "zero received",
			rep:      report{Sent: 10, Dropped: 10},
			chaos:    true,
			failures: 1, failureSubstrings: []string{"no watch responses"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mismatches, failures := judge(tc.rep, tc.strict, tc.chaos)
			if len(mismatches) != tc.mismatches || len(failures) != tc.failures {
				t.Fatalf("mismatches %q, failures %q; want %d and %d", mismatches, failures, tc.mismatches, tc.failures)
			}
			all := strings.Join(failures, "\n")
			for _, sub := range tc.failureSubstrings {
				if !strings.Contains(all, sub) {
					t.Fatalf("failures %q lack %q", failures, sub)
				}
			}
		})
	}
}

// TestScrape drives scrape against an httptest server: a good page, a
// missing series, a malformed exposition and a non-200 status.
func TestScrape(t *testing.T) {
	const good = `# TYPE napmon_requests_served_total counter
napmon_requests_served_total{tenant="alpha"} 7
napmon_requests_served_total{tenant="default"} 42
# TYPE napmon_requests_shed_total counter
napmon_requests_shed_total{tenant="default"} 3
napmon_requests_shed_total{tenant="alpha"} 1
# TYPE napmon_gateway_frames_dropped_total counter
napmon_gateway_frames_dropped_total 2
`
	serve := func(status int, body string) string {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.WriteHeader(status)
			fmt.Fprint(w, body)
		}))
		t.Cleanup(srv.Close)
		return srv.URL + "/metrics"
	}

	s, err := scrape(serve(http.StatusOK, good))
	if err != nil {
		t.Fatal(err)
	}
	if *s != (serverSample{served: 42, shed: 3, gwDropped: 2}) {
		t.Fatalf("scraped %+v", *s)
	}

	for _, tc := range []struct {
		name, url, want string
	}{
		{"missing series", serve(http.StatusOK, strings.Join(strings.Split(good, "\n")[:6], "\n")+"\n"),
			"napmon_gateway_frames_dropped_total missing"},
		{"default tenant absent", serve(http.StatusOK, strings.ReplaceAll(good, `"default"`, `"beta"`)),
			"napmon_requests_served_total missing (labels map[tenant:default])"},
		{"malformed exposition", serve(http.StatusOK, "napmon_requests_served_total forty-two\n"), "parse"},
		{"non-200 status", serve(http.StatusServiceUnavailable, good), "503"},
	} {
		if _, err := scrape(tc.url); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// liveGateway serves an untrained 4-input, 3-class toy model as the
// registry's default tenant behind a fleet gateway on loopback UDP and
// TCP, with the registry's and gateway's series on one /metrics page —
// the shape napmon-serve gives them.
func liveGateway(t *testing.T) (udpAddr, tcpAddr, metricsURL string) {
	t.Helper()
	r := rng.New(5)
	network := nn.New(nn.NewDense(4, 8, r), nn.NewReLU(), nn.NewDense(8, 3, r))
	samples := make([]nn.Sample, 30)
	for i := range samples {
		x := tensor.New(4)
		for j := range x.Data() {
			x.Data()[j] = r.NormScaled(0, 1)
		}
		samples[i] = nn.Sample{Input: x, Label: i % 3}
	}
	mon, err := core.Build(network, samples, core.Config{Layer: 1, Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New(registry.Config{})
	metrics := obs.NewRegistry()
	reg.RegisterMetrics(metrics)
	if _, err := reg.Load(registry.DefaultTenant, registry.TenantConfig{Net: network, Mon: mon,
		Serve: serve.Config{InputShape: []int{4}}}); err != nil {
		t.Fatal(err)
	}
	gw := wire.NewFleetGateway(func(id uint32) (wire.TenantLane, error) {
		tn, err := reg.AcquireID(id)
		if err != nil {
			return nil, err
		}
		return tn, nil
	}, reg.Len, wire.GatewayConfig{})
	gw.RegisterMetrics(metrics)
	if err := gw.ListenUDP("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := gw.ServeTCP(ln); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(metrics.Handler())
	t.Cleanup(func() {
		srv.Close()
		gw.Close()
		reg.Close(context.Background())
	})
	return gw.UDPAddr().String(), gw.TCPAddr().String(), srv.URL + "/metrics"
}

// TestSoakAgainstGateway runs the soak end to end against a live
// gateway on both transports, closed and open loop: strict accounting
// must close — the default tenant's served delta equals the verdicts
// received — with nothing dropped, malformed or shed.
func TestSoakAgainstGateway(t *testing.T) {
	udp, tcp, metrics := liveGateway(t)
	for _, tc := range []struct {
		name, proto, addr string
		rate              float64
	}{
		{"tcp closed loop", "tcp", tcp, 0},
		{"tcp open loop", "tcp", tcp, 400},
		{"udp closed loop", "udp", udp, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := soak(options{
				addr: tc.addr, proto: tc.proto, duration: 200 * time.Millisecond, grace: 2 * time.Second,
				connectTimeout: 5 * time.Second, rate: tc.rate, conns: 2, window: 4,
				shape: []int{4}, seed: 1, metrics: metrics,
			})
			if err != nil {
				t.Fatal(err)
			}
			mismatches, failures := judge(rep, true, false)
			if len(mismatches) > 0 || len(failures) > 0 {
				t.Fatalf("mismatches %q, failures %q in %+v (server %+v)", mismatches, failures, rep, rep.Server)
			}
			if rep.Received == 0 || rep.Sent != rep.Received || rep.Server.ServedDelta != rep.Received {
				t.Fatalf("sent %d, received %d, server served %d", rep.Sent, rep.Received, rep.Server.ServedDelta)
			}
			if rep.P50Ns <= 0 || rep.P99Ns < rep.P50Ns || rep.ThroughputRPS <= 0 {
				t.Fatalf("implausible latency/throughput: %+v", rep)
			}
		})
	}
}

// TestSoakFailsFast: a gateway that is not there fails the probe, and
// a /metrics page without the default tenant's series fails the
// pre-run scrape, before any load is sent.
func TestSoakFailsFast(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	o := options{addr: dead, proto: "tcp", connectTimeout: 300 * time.Millisecond, conns: 1, window: 1, shape: []int{4}}
	if _, err := soak(o); err == nil || !strings.Contains(err.Error(), "probe") {
		t.Fatalf("soak against a closed port: %v", err)
	}
	_, tcp, _ := liveGateway(t)
	empty := httptest.NewServer(obs.NewRegistry().Handler())
	defer empty.Close()
	o.addr, o.metrics = tcp, empty.URL+"/metrics"
	if _, err := soak(o); err == nil || !strings.Contains(err.Error(), "pre-run metrics scrape") {
		t.Fatalf("soak against a page without the default tenant: %v", err)
	}
}
