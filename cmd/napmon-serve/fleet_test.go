package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"

	"napmon/internal/core"
	"napmon/internal/obs"
)

// fleetTenant is one tenant of the replication tests and an input its
// shape gate accepts.
type fleetTenant struct {
	name  string
	shape []int
	input []float64
}

// TestFleetFollowerConverges is the replication gate: a leader serving
// the default tenant hot-loads a second one over PUT, a follower
// bootstraps both from snapshots, 20 learn deltas per tenant stream
// into the leader, and the follower must reach the leader's epoch with
// identical verdicts and live per-tenant metrics on both daemons.
func TestFleetFollowerConverges(t *testing.T) {
	testFollowerConverges(t, 0, 0)
}

// TestChaosFollowerConverges runs the same fleet with the follower's
// leader client behind a seeded fault schedule (resets, 5xx bursts,
// hangs). Once the bounded budget drains, the backoff poller must still
// converge; the seed on a failure replays the same fault sequence.
func TestChaosFollowerConverges(t *testing.T) {
	testFollowerConverges(t, 1, 30)
}

func testFollowerConverges(t *testing.T, chaosSeed uint64, chaosFaults int) {
	if chaosSeed != 0 {
		defer func() {
			if t.Failed() {
				t.Logf("chaos seed %d with budget %d replays this fault sequence", chaosSeed, chaosFaults)
			}
		}()
	}
	model, monitor, inputs := toyFiles(t, 31)
	leader := boot(t, config{modelPath: model, monitorPath: monitor, shape: []int{4}}, false)
	callJSON(t, "PUT", leader.http+"/v1/models/alpha", loadRequest{Selftrain: 0.005, Seed: 7}, 201, nil)
	follower := boot(t, config{follow: leader.http, followPoll: 20 * time.Millisecond,
		chaosSeed: chaosSeed, chaosFaults: chaosFaults}, false)

	mnist := make([]float64, 28*28)
	for i := range mnist {
		mnist[i] = 0.1
	}
	tenants := []fleetTenant{{"default", []int{4}, inputs[0]}, {"alpha", []int{1, 28, 28}, mnist}}
	const learns = 20
	for _, tn := range tenants {
		seen := fleetWatch(t, leader, tn)
		for i := 0; i < learns; i++ {
			p, _ := flipped(t, seen.Pattern, i%len(seen.Pattern))
			callJSON(t, "POST", leader.http+"/v1/models/"+tn.name+"/learn", learnRequest{Class: seen.Class, Patterns: []string{p}}, 200, nil)
		}
		if e := httpStats(t, leader, tn.name).Epoch; e != 1+learns {
			t.Fatalf("leader %s at epoch %d after %d learns, want %d", tn.name, e, learns, 1+learns)
		}
	}

	deadline := time.Now().Add(30 * time.Second)
	for _, tn := range tenants {
		for httpStats(t, follower, tn.name).Epoch != 1+learns {
			if time.Now().After(deadline) {
				t.Fatalf("follower %s at epoch %d, never converged to the leader's %d",
					tn.name, httpStats(t, follower, tn.name).Epoch, 1+learns)
			}
			time.Sleep(5 * time.Millisecond)
		}
		if fv, lv := fleetWatch(t, follower, tn), fleetWatch(t, leader, tn); fv != lv {
			t.Fatalf("%s at epoch %d: follower verdict %+v differs from the leader's %+v", tn.name, 1+learns, fv, lv)
		}
	}

	// Both daemons export the same serving series for every tenant,
	// however it was loaded: from flags, by PUT, or from a snapshot.
	classes := map[string][]int{}
	for _, tn := range tenants {
		status, snap := call(t, "GET", leader.http+"/v1/models/"+tn.name+"/snapshot", nil)
		if status != 200 {
			t.Fatalf("%s snapshot: status %d", tn.name, status)
		}
		mon, _, err := core.LoadSnapshot(bytes.NewReader(snap))
		if err != nil {
			t.Fatal(err)
		}
		classes[tn.name] = mon.WatchClasses()
	}
	for _, d := range []struct {
		role string
		b    *booted
	}{{"leader", leader}, {"follower", follower}} {
		exp := scrapeMetrics(t, d.b)
		for _, tn := range tenants {
			lbl := map[string]string{"tenant": tn.name}
			if up, ok := exp.Value("napmon_tenant_up", lbl); !ok || up != 1 {
				t.Errorf("%s: napmon_tenant_up{tenant=%q} = %v (present %v), want 1", d.role, tn.name, up, ok)
			}
			if e, ok := exp.Value("napmon_epoch", lbl); !ok || e != 1+learns {
				t.Errorf("%s: napmon_epoch{tenant=%q} = %v (present %v), want %d", d.role, tn.name, e, ok, 1+learns)
			}
			total := map[string]string{"tenant": tn.name, "stage": "total"}
			if n, ok := exp.Value("napmon_stage_duration_seconds_count", total); !ok || n == 0 {
				t.Errorf("%s: napmon_stage_duration_seconds_count %v = %v (present %v), want > 0", d.role, total, n, ok)
			}
			for _, c := range classes[tn.name] {
				cl := map[string]string{"tenant": tn.name, "class": strconv.Itoa(c)}
				if _, ok := exp.Value("napmon_oop_total", cl); !ok {
					t.Errorf("%s: napmon_oop_total %v absent", d.role, cl)
				}
			}
		}
	}

	if err := follower.stop(t); err != nil {
		t.Fatalf("follower run: %v", err)
	}
	if err := leader.stop(t); err != nil {
		t.Fatalf("leader run: %v", err)
	}
}

func fleetWatch(t *testing.T, b *booted, tn fleetTenant) watchResponse {
	t.Helper()
	var v watchResponse
	callJSON(t, "POST", b.http+"/v1/models/"+tn.name+"/watch", watchRequest{Shape: tn.shape, Input: tn.input}, 200, &v)
	return v
}

// scrapeMetrics GETs a daemon's /metrics and parses it strictly. Only
// the fleet-level registry and gateway series may be unlabelled: every
// serving series carries its tenant.
func scrapeMetrics(t *testing.T, b *booted) *obs.Exposition {
	t.Helper()
	status, body := call(t, "GET", b.http+"/metrics", nil)
	if status != 200 {
		t.Fatalf("/metrics: status %d", status)
	}
	exp, err := obs.ParseExposition(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	for _, smp := range exp.Samples {
		if _, ok := smp.Labels["tenant"]; !ok && !strings.HasPrefix(smp.Name, "napmon_registry_") && !strings.HasPrefix(smp.Name, "napmon_gateway_") {
			t.Errorf("unlabelled serving series %s %v", smp.Name, smp.Labels)
		}
	}
	return exp
}

// TestMetricsFollowReloadedDefault reloads the flag-loaded default
// tenant over DELETE + PUT: its serving series must read the new
// server, as /v1 stats does.
func TestMetricsFollowReloadedDefault(t *testing.T) {
	b, model, monitor, inputs := bootToy(t, 33)
	httpWatch(t, b, "default", inputs[0])
	if status, out := call(t, "DELETE", b.http+"/v1/models/default", nil); status != 204 {
		t.Fatalf("DELETE: status %d: %s", status, out)
	}
	callJSON(t, "PUT", b.http+"/v1/models/default", loadRequest{Model: model, Monitor: monitor, Shape: []int{4}}, 201, nil)
	for _, x := range inputs[:3] {
		httpWatch(t, b, "default", x)
	}
	exp := scrapeMetrics(t, b)
	served := httpStats(t, b, "default").Served
	if v, ok := exp.Value("napmon_requests_served_total", map[string]string{"tenant": "default"}); !ok || uint64(v) != served || served != 3 {
		t.Fatalf("napmon_requests_served_total{tenant=\"default\"} = %v (present %v), /v1 stats say %d, want 3", v, ok, served)
	}
}
