package registry

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"napmon/internal/core"
	"napmon/internal/nn"
	"napmon/internal/obs"
	"napmon/internal/rng"
	"napmon/internal/serve"
	"napmon/internal/tensor"
)

// tenantParts builds a tiny untrained serving stack — lifecycle tests
// care about pinning and drain order, not verdict quality, so skipping
// training keeps the race-detector runs fast.
func tenantParts(t testing.TB, seed uint64) (*nn.Network, *core.Monitor, []*tensor.Tensor) {
	return tenantPartsClasses(t, seed, 3)
}

// tenantPartsClasses is tenantParts with a classes-wide output layer,
// every class monitored.
func tenantPartsClasses(t testing.TB, seed uint64, classes int) (*nn.Network, *core.Monitor, []*tensor.Tensor) {
	t.Helper()
	r := rng.New(seed)
	net := nn.New(
		nn.NewDense(4, 8, r), nn.NewReLU(), // monitored layer: index 1
		nn.NewDense(8, classes, r),
	)
	samples := make([]nn.Sample, 0, 30)
	inputs := make([]*tensor.Tensor, 0, 30)
	for i := 0; i < 30; i++ {
		x := tensor.New(4)
		for j := range x.Data() {
			x.Data()[j] = r.NormScaled(0, 1)
		}
		samples = append(samples, nn.Sample{Input: x, Label: i % classes})
		inputs = append(inputs, x)
	}
	mon, err := core.Build(net, samples, core.Config{Layer: 1, Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	return net, mon, inputs
}

func load(t testing.TB, r *Registry, name string, seed uint64) (*Tenant, []*tensor.Tensor) {
	t.Helper()
	net, mon, inputs := tenantParts(t, seed)
	tn, err := r.Load(name, TenantConfig{Net: net, Mon: mon, Serve: serve.Config{
		MaxBatch: 8, MaxDelay: 200 * time.Microsecond, QueueDepth: 256,
	}})
	if err != nil {
		t.Fatal(err)
	}
	return tn, inputs
}

// learnDelta derives a deterministic single-class delta whose patterns
// match the monitored layer's width.
func learnDelta(width int, seed uint64) map[int][]core.Pattern {
	p := make(core.Pattern, width)
	s := seed
	for i := range p {
		s = s*6364136223846793005 + 1442695040888963407
		p[i] = s>>63 == 1
	}
	return map[int][]core.Pattern{int(seed % 3): {p}}
}

func TestRegistryLifecycle(t *testing.T) {
	r := New(Config{})
	a, _ := load(t, r, "alpha", 1)
	b, _ := load(t, r, "beta", 2)
	if a.ID() == b.ID() {
		t.Fatalf("tenants share id %d", a.ID())
	}
	if got := r.Names(); len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Fatalf("Names() = %v", got)
	}
	if _, err := r.Load("alpha", TenantConfig{}); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate load: %v", err)
	}
	for _, bad := range []string{"", "a/b", ".hidden", "-dash", strings.Repeat("x", 65)} {
		if _, err := r.Load(bad, TenantConfig{}); err == nil {
			t.Fatalf("invalid name %q accepted", bad)
		}
	}

	got, err := r.Acquire("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if got != a {
		t.Fatal("Acquire returned a different tenant")
	}
	got.Release()
	byID, err := r.AcquireID(b.ID())
	if err != nil {
		t.Fatal(err)
	}
	if byID != b {
		t.Fatal("AcquireID returned a different tenant")
	}
	byID.Release()
	if _, err := r.Acquire("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing tenant: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	gen := r.Generation()
	oldID := a.ID()
	if err := r.Unload(ctx, "alpha"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Acquire("alpha"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unloaded tenant still acquirable: %v", err)
	}
	if r.Generation() <= gen {
		t.Fatal("generation did not advance on unload")
	}
	// Ids are sticky across reload: the wire id keeps meaning the same
	// name for the lifetime of the process. Incarnations are the
	// opposite — every load gets a fresh, strictly larger one, so a
	// replication follower can detect the reload (epochs restart with
	// it) and re-snapshot instead of polling epochs that never come.
	a2, _ := load(t, r, "alpha", 3)
	if a2.ID() != oldID {
		t.Fatalf("reloaded tenant id %d, want sticky %d", a2.ID(), oldID)
	}
	if a2.Incarnation() <= a.Incarnation() {
		t.Fatalf("reloaded incarnation %d not after original %d", a2.Incarnation(), a.Incarnation())
	}

	if err := r.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Load("gamma", TenantConfig{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("load after close: %v", err)
	}
	if r.Len() != 0 {
		t.Fatalf("%d tenants after close", r.Len())
	}
}

// TestRegistryConcurrentChurn is the tentpole's lifecycle guarantee
// under the race detector: watch traffic flows across three tenants
// while one of them is repeatedly unloaded and reloaded and the others
// absorb learn updates. A successful Acquire must mean every in-flight
// request completes — zero drops — and per-tenant epochs must move
// strictly monotonically.
func TestRegistryConcurrentChurn(t *testing.T) {
	r := New(Config{Grace: 30 * time.Second})
	names := []string{"churn", "steady-a", "steady-b"}
	inputsByName := make(map[string][]*tensor.Tensor)
	for i, name := range names {
		_, inputs := load(t, r, name, uint64(i+1))
		inputsByName[name] = inputs
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var served atomic.Uint64
	fail := func(format string, args ...any) {
		select {
		case <-stop:
		default:
			t.Errorf(format, args...)
		}
	}

	// Watch workers: two per tenant, pin → submit → wait → release.
	for _, name := range names {
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(name string, w int) {
				defer wg.Done()
				inputs := inputsByName[name]
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					tn, err := r.Acquire(name)
					if err != nil {
						// The churn tenant is allowed to be absent
						// between unload and reload; the steady ones
						// are not.
						if name != "churn" {
							fail("Acquire(%s): %v", name, err)
							return
						}
						time.Sleep(100 * time.Microsecond)
						continue
					}
					fut, err := tn.Server().Submit(inputs[(i*2+w)%len(inputs)])
					if err != nil {
						fail("Submit on pinned %s: %v", name, err)
						tn.Release()
						return
					}
					if _, err := fut.Wait(); err != nil {
						fail("pinned %s dropped an in-flight request: %v", name, err)
						tn.Release()
						return
					}
					served.Add(1)
					tn.Release()
				}
			}(name, w)
		}
	}

	// Learner: streams deltas into the steady tenants, checking epoch
	// monotonicity.
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := map[string]uint64{}
		for seed := uint64(100); ; seed++ {
			select {
			case <-stop:
				return
			default:
			}
			for _, name := range []string{"steady-a", "steady-b"} {
				tn, err := r.Acquire(name)
				if err != nil {
					fail("learner Acquire(%s): %v", name, err)
					return
				}
				epoch, err := tn.Learn(learnDelta(8, seed))
				if err != nil {
					fail("Learn(%s): %v", name, err)
				} else if epoch <= last[name] {
					fail("%s epoch went %d -> %d", name, last[name], epoch)
				} else {
					last[name] = epoch
				}
				tn.Release()
			}
		}
	}()

	// Churner: unload/reload cycles on one tenant.
	deadline := time.After(1500 * time.Millisecond)
	cycles := 0
	for done := false; !done; {
		select {
		case <-deadline:
			done = true
		default:
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			if err := r.Unload(ctx, "churn"); err != nil {
				t.Errorf("Unload cycle %d: %v", cycles, err)
			}
			cancel()
			load(t, r, "churn", uint64(cycles%5+10))
			cycles++
		}
	}
	close(stop)
	wg.Wait()

	if cycles < 2 {
		t.Fatalf("only %d unload/reload cycles — churn did not overlap traffic", cycles)
	}
	if served.Load() == 0 {
		t.Fatal("no requests served during churn")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := r.Close(ctx); err != nil {
		t.Fatal(err)
	}
	t.Logf("served %d requests across %d unload/reload cycles", served.Load(), cycles)
}

// TestRegistryReplication drives the leader→follower path at the
// registry level: snapshot warm start, epoch-keyed delta polling via
// DeltasSince/ApplyDelta, and bit-for-bit monitor convergence.
func TestRegistryReplication(t *testing.T) {
	leaderReg := New(Config{})
	leader, _ := load(t, leaderReg, "m", 1)
	for seed := uint64(20); seed < 24; seed++ {
		if _, err := leader.Learn(learnDelta(8, seed)); err != nil {
			t.Fatal(err)
		}
	}

	var snap bytes.Buffer
	if err := leader.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	followerReg := New(Config{})
	follower, err := followerReg.LoadSnapshot("m", leader.Network(), &snap, serve.Config{MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := follower.Monitor().Epoch(), leader.Monitor().Epoch(); got != want {
		t.Fatalf("warm-started follower at epoch %d, leader at %d", got, want)
	}
	// The snapshot's embedded tail is in the follower's own log from the
	// instant the tenant is acquirable, so a chained replica polling
	// right after the warm start must get deltas, not a spurious
	// ErrDeltaGap ordering it to re-snapshot.
	if chained, err := follower.DeltasSince(follower.Monitor().Epoch() - 1); err != nil || len(chained) == 0 {
		t.Fatalf("chained DeltasSince right after LoadSnapshot: %v (%d entries)", err, len(chained))
	}

	// Leader keeps moving: more patterns and a γ re-level.
	for seed := uint64(40); seed < 50; seed++ {
		if _, err := leader.Learn(learnDelta(8, seed)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := leader.UpdateGamma(2); err != nil {
		t.Fatal(err)
	}

	// Follower polls twice (mid-stream then to the end), replaying
	// exactly the epoch keys the leader published.
	for poll := 0; poll < 2; poll++ {
		entries, err := leader.DeltasSince(follower.Monitor().Epoch())
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range entries {
			if poll == 0 && i == len(entries)/2 {
				break // simulate a partial poll; next round resumes
			}
			if err := follower.ApplyDelta(e); err != nil {
				t.Fatalf("ApplyDelta(epoch %d): %v", e.Epoch, err)
			}
		}
	}
	if got, want := follower.Monitor().Epoch(), leader.Monitor().Epoch(); got != want {
		t.Fatalf("follower epoch %d, leader epoch %d", got, want)
	}
	// Duplicate delivery is idempotent; stale polls are harmless.
	tail, err := leader.DeltasSince(0)
	if !errors.Is(err, ErrDeltaGap) && err != nil {
		t.Fatal(err)
	}
	for _, e := range tail {
		if err := follower.ApplyDelta(e); err != nil {
			t.Fatalf("duplicate ApplyDelta(epoch %d): %v", e.Epoch, err)
		}
	}

	var lb, fb bytes.Buffer
	if err := leader.Monitor().Snapshot(&lb, nil); err != nil {
		t.Fatal(err)
	}
	if err := follower.Monitor().Snapshot(&fb, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lb.Bytes(), fb.Bytes()) {
		t.Fatal("follower monitor diverged from leader — replication is not bit-for-bit")
	}
}

// gateWriter blocks every Write until release is closed, after closing
// entered on the first one.
type gateWriter struct {
	once             sync.Once
	entered, release chan struct{}
	buf              bytes.Buffer
}

func (w *gateWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.entered) })
	<-w.release
	return w.buf.Write(p)
}

// TestSnapshotHoldsNoLockWhileWriting pins that a tenant snapshot holds
// the log mutex only for its cut: while the snapshot of a tenant with
// patterns pending in its overlays (which it folds before it writes) is
// stuck in its writer, a learn and a follower poll still complete, and
// the snapshot is the one of the epoch before the learn.
func TestSnapshotHoldsNoLockWhileWriting(t *testing.T) {
	r := New(Config{})
	tn, _ := load(t, r, "m", 1)
	for seed := uint64(20); seed < 26; seed++ {
		if _, err := tn.Learn(learnDelta(8, seed)); err != nil {
			t.Fatal(err)
		}
	}
	if tn.Monitor().Updater().Pending() == 0 {
		t.Fatal("no pattern pending; the snapshot folds nothing and the test shows nothing")
	}
	before := tn.Monitor().Epoch()
	w := &gateWriter{entered: make(chan struct{}), release: make(chan struct{})}
	released := false
	defer func() {
		if !released {
			close(w.release)
		}
	}()
	snapDone := make(chan error, 1)
	go func() { snapDone <- tn.Snapshot(w) }()
	<-w.entered

	learnDone := make(chan error, 1)
	go func() {
		if _, err := tn.Learn(learnDelta(8, 30)); err != nil {
			learnDone <- err
			return
		}
		_, err := tn.DeltasSince(before)
		learnDone <- err
	}()
	select {
	case err := <-learnDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a learn waited for a snapshot's write: the log mutex is held past the cut")
	}
	close(w.release)
	released = true
	if err := <-snapDone; err != nil {
		t.Fatal(err)
	}
	mon, tail, err := core.LoadSnapshot(&w.buf)
	if err != nil {
		t.Fatal(err)
	}
	if mon.Epoch() != before || len(tail) == 0 || tail[len(tail)-1].Epoch != before {
		t.Fatalf("snapshot at epoch %d with %d tail entries, want the cut at epoch %d", mon.Epoch(), len(tail), before)
	}
}

// TestDeltaLogGap pins the re-snapshot contract: a follower lagging past
// the retained window gets ErrDeltaGap, never a silently incomplete
// replay.
func TestDeltaLogGap(t *testing.T) {
	r := New(Config{DeltaLogSize: 4})
	tn, _ := load(t, r, "m", 1)
	base := tn.Monitor().Epoch()
	for seed := uint64(60); seed < 70; seed++ {
		if _, err := tn.Learn(learnDelta(8, seed)); err != nil {
			t.Fatal(err)
		}
	}
	cur := tn.Monitor().Epoch()
	if _, err := tn.DeltasSince(base); !errors.Is(err, ErrDeltaGap) {
		t.Fatalf("lagging poll past the window: %v", err)
	}
	entries, err := tn.DeltasSince(cur - 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 || entries[0].Epoch != cur-2 || entries[2].Epoch != cur {
		t.Fatalf("window poll returned %d entries starting at %d", len(entries), entries[0].Epoch)
	}
	if got, _ := tn.DeltasSince(cur); got != nil {
		t.Fatalf("caught-up poll returned %d entries", len(got))
	}
}

// TestRegistryMetrics checks every loaded tenant exports the serving
// families under its tenant label, that they survive an unload/reload
// cycle without a duplicate-registration panic, read 0/1 through
// napmon_tenant_up, and follow the reloaded name's new server: its
// counters and its class set.
func TestRegistryMetrics(t *testing.T) {
	r := New(Config{})
	reg := obs.NewRegistry()
	r.RegisterMetrics(reg)
	tnA, inputsA := load(t, r, "alpha", 1)
	load(t, r, "beta", 2)

	watch := func(tn *Tenant, x *tensor.Tensor) {
		t.Helper()
		fut, err := tn.Server().Submit(x)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fut.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	watch(tnA, inputsA[0])

	scrape := func() *obs.Exposition {
		t.Helper()
		var buf bytes.Buffer
		if err := reg.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		exp, err := obs.ParseExposition(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return exp
	}
	value := func(exp *obs.Exposition, name string, labels ...string) float64 {
		t.Helper()
		want := map[string]string{}
		for i := 0; i < len(labels); i += 2 {
			want[labels[i]] = labels[i+1]
		}
		v, ok := exp.Value(name, want)
		if !ok {
			t.Fatalf("scrape has no %s %v", name, want)
		}
		return v
	}
	// classSeries counts name's per-class series for tenant.
	classSeries := func(exp *obs.Exposition, name, tenant string) int {
		_, n := exp.SumAcross(name, map[string]string{"tenant": tenant})
		return n
	}

	exp := scrape()
	if v := value(exp, "napmon_registry_tenants"); v != 2 {
		t.Errorf("napmon_registry_tenants = %v, want 2", v)
	}
	for _, name := range []string{"alpha", "beta"} {
		if v := value(exp, "napmon_tenant_up", "tenant", name); v != 1 {
			t.Errorf("napmon_tenant_up{tenant=%q} = %v, want 1", name, v)
		}
		if v := value(exp, "napmon_epoch", "tenant", name); v != 1 {
			t.Errorf("napmon_epoch{tenant=%q} = %v, want 1", name, v)
		}
		if n := classSeries(exp, "napmon_oop_total", name); n != 3 {
			t.Errorf("napmon_oop_total{tenant=%q}: %d class series, want 3", name, n)
		}
	}
	if v := value(exp, "napmon_requests_served_total", "tenant", "alpha"); v != 1 {
		t.Errorf("alpha served %v, want 1", v)
	}
	if v := value(exp, "napmon_stage_duration_seconds_count", "tenant", "alpha", "stage", "total"); v != 1 {
		t.Errorf("alpha total stage count %v, want 1", v)
	}
	for _, smp := range exp.Samples {
		if strings.HasPrefix(smp.Name, "napmon_") && !strings.HasPrefix(smp.Name, "napmon_registry_") && smp.Labels["tenant"] == "" {
			t.Errorf("unlabelled serving series %s%v", smp.Name, smp.Labels)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := r.Unload(ctx, "alpha"); err != nil {
		t.Fatal(err)
	}
	exp = scrape()
	if v := value(exp, "napmon_tenant_up", "tenant", "alpha"); v != 0 {
		t.Errorf("unloaded tenant scrapes napmon_tenant_up %v, want 0", v)
	}
	if v := value(exp, "napmon_requests_served_total", "tenant", "alpha"); v != 0 {
		t.Errorf("unloaded tenant scrapes served %v, want 0", v)
	}

	// Reload the name with a five-class model: no duplicate-series
	// panic, the counters are the new server's, and the new classes get
	// series of their own.
	net, mon, inputs := tenantPartsClasses(t, 3, 5)
	tnA, err := r.Load("alpha", TenantConfig{Net: net, Mon: mon})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		watch(tnA, inputs[i])
	}
	exp = scrape()
	if v := value(exp, "napmon_tenant_up", "tenant", "alpha"); v != 1 {
		t.Errorf("reloaded tenant scrapes napmon_tenant_up %v, want 1", v)
	}
	if v, st := value(exp, "napmon_requests_served_total", "tenant", "alpha"), tnA.Server().Stats(); v != float64(st.Served) || v != 3 {
		t.Errorf("reloaded tenant scrapes served %v, its server's stats say %d, want 3", v, st.Served)
	}
	if n := classSeries(exp, "napmon_oop_total", "alpha"); n != 5 {
		t.Errorf("reloaded five-class tenant: %d napmon_oop_total series, want 5", n)
	}
	if v := value(exp, "napmon_watched_total", "tenant", "alpha", "class", "4"); v != float64(mon.WatchCountsFor(4).Watched) {
		t.Errorf("class 4 watched %v, monitor says %d", v, mon.WatchCountsFor(4).Watched)
	}
	if n := classSeries(exp, "napmon_oop_total", "beta"); n != 3 {
		t.Errorf("beta's class series changed with alpha's reload: %d, want 3", n)
	}
}

// BenchmarkRegistryLookup measures the pin/release hot path the wire
// gateway takes per frame.
func BenchmarkRegistryLookup(b *testing.B) {
	r := New(Config{})
	for i := 0; i < 8; i++ {
		load(b, r, fmt.Sprintf("tenant-%d", i), uint64(i+1))
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			tn, err := r.AcquireID(3)
			if err != nil {
				b.Fatal(err)
			}
			tn.Release()
		}
	})
	b.StopTimer()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = r.Close(ctx)
}
