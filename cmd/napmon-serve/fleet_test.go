package main

import (
	"bytes"
	"testing"
	"time"

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

	for _, d := range []struct {
		role string
		b    *booted
	}{{"leader", leader}, {"follower", follower}} {
		status, body := call(t, "GET", d.b.http+"/metrics", nil)
		if status != 200 {
			t.Fatalf("%s /metrics: status %d", d.role, status)
		}
		exp, err := obs.ParseExposition(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s /metrics: %v", d.role, err)
		}
		for _, tn := range tenants {
			lbl := map[string]string{"tenant": tn.name}
			if up, ok := exp.Value("napmon_tenant_up", lbl); !ok || up != 1 {
				t.Errorf("%s: napmon_tenant_up{tenant=%q} = %v (present %v), want 1", d.role, tn.name, up, ok)
			}
			if e, ok := exp.Value("napmon_tenant_epoch", lbl); !ok || e != 1+learns {
				t.Errorf("%s: napmon_tenant_epoch{tenant=%q} = %v (present %v), want %d", d.role, tn.name, e, ok, 1+learns)
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
