package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"time"

	"napmon"
)

// follower replicates a leader daemon: it mirrors the leader's tenant
// set, warm-starts each tenant from a compact snapshot (frozen at the
// leader's epoch) and then polls /deltas, applying each epoch delta in
// order so the local monitors converge bit-for-bit with the leader's.
// A follower that falls behind the leader's bounded delta log (410 on
// /deltas) drops the stale tenant and re-syncs from a fresh snapshot.
type follower struct {
	d    *daemon
	base string // leader base URL, e.g. http://127.0.0.1:8080
	poll time.Duration

	// incs records, per tenant name, the leader incarnation the local
	// replica was synced from. A reload on the leader (DELETE+PUT
	// between polls) restarts the name at a new incarnation whose epochs
	// begin below the replica's, so every later DeltasSince poll would
	// come back empty forever — no 410, no error, just a silently stale
	// replica. Comparing incarnations turns that into a drop-and-resync.
	// Only the bootstrap and run goroutine touch it (sequentially).
	incs map[string]uint64

	// timeout bounds every leader request end to end (dial through body
	// read). A zero-value http.Client has NO timeout, so a leader socket
	// that accepts and then hangs used to stall bootstrap and the whole
	// replication loop forever with no log line; now the hung request
	// fails within the deadline, run logs it, and the next tick retries.
	timeout time.Duration
	client  http.Client
	// transport is the follower's own connection pool (client.Transport,
	// possibly behind a chaos wrapper), so stop can close the idle leader
	// connections it alone opened.
	transport *http.Transport

	// cancel and done belong to the replication loop start launched.
	cancel context.CancelFunc
	done   chan struct{}

	// sleep paces the replication loop (sleepCtx in production); tests
	// inject a recorder to pin backoff sequences without wall time.
	sleep func(ctx context.Context, d time.Duration) bool
}

// newFollower wires a follower for one leader. The request deadline is
// derived from the poll cadence — generous enough for a snapshot fetch
// (many polls' worth), short enough that a hung leader surfaces as a
// logged error within seconds rather than a silent stall.
func newFollower(d *daemon, base string, poll time.Duration) *follower {
	timeout := 10 * poll
	if timeout < 5*time.Second {
		timeout = 5 * time.Second
	}
	f := &follower{d: d, base: base, poll: poll, timeout: timeout, incs: map[string]uint64{}, sleep: sleepCtx,
		transport: http.DefaultTransport.(*http.Transport).Clone()}
	f.client.Transport = f.transport
	// Belt and suspenders: the per-request context deadline in get is
	// the primary bound; Client.Timeout catches any future call path
	// that forgets to derive one.
	f.client.Timeout = timeout
	return f
}

// bootstrapRetry keeps attempting bootstrap under backoff until it
// succeeds, ctx ends, or the budget elapses. A follower started into a
// leader's bad minute — restarting, flapping, or behind an injected
// fault schedule — should come up once the leader does, not die on the
// first refused connection.
func (f *follower) bootstrapRetry(ctx context.Context, budget time.Duration) error {
	bo := newBackoff(f.poll)
	deadline := time.Now().Add(budget)
	for {
		err := f.bootstrap(ctx)
		if err == nil {
			return nil
		}
		bo.failure()
		if ctx.Err() != nil || time.Now().After(deadline) {
			return err
		}
		log.Printf("follow: bootstrap: %v (retrying)", err)
		if !f.sleep(ctx, bo.next()) {
			return err
		}
	}
}

// bootstrap mirrors the leader's current tenant set before the local
// listener opens, so the follower never serves an empty fleet to the
// first request.
func (f *follower) bootstrap(ctx context.Context) error {
	names, err := f.leaderModels(ctx)
	if err != nil {
		return err
	}
	if len(names) == 0 {
		return fmt.Errorf("leader serves no models")
	}
	for _, m := range names {
		if err := f.syncTenant(ctx, m); err != nil {
			return fmt.Errorf("tenant %q: %v", m.Name, err)
		}
	}
	return nil
}

// run is the replication loop: it reconciles the local tenant set
// against the leader's and pulls pending deltas, pacing itself with
// failure-aware backoff — the healthy cadence is f.poll, a failing
// leader widens the gap exponentially (full jitter, capped at ≈30×
// poll), and the first successful poll snaps back to f.poll.
func (f *follower) run(ctx context.Context) {
	bo := newBackoff(f.poll)
	for {
		if !f.sleep(ctx, bo.next()) {
			return
		}
		if f.pollOnce(ctx) {
			bo.success()
		} else {
			bo.failure()
		}
	}
}

// start launches the replication loop; stop ends it.
func (f *follower) start(ctx context.Context) {
	ctx, f.cancel = context.WithCancel(ctx)
	f.done = make(chan struct{})
	go func() { defer close(f.done); f.run(ctx) }()
}

// stop cancels the replication loop (if start ran), returns once it has
// exited, and closes the idle leader connections.
func (f *follower) stop() {
	if f.cancel != nil {
		f.cancel()
		<-f.done
	}
	f.transport.CloseIdleConnections()
}

// pollOnce performs one reconcile pass and reports whether the leader
// fully answered — any listing or per-tenant sync failure counts
// against it for backoff purposes.
func (f *follower) pollOnce(ctx context.Context) bool {
	models, err := f.leaderModels(ctx)
	if err != nil {
		log.Printf("follow: list models: %v", err)
		return false
	}
	ok := true
	seen := make(map[string]bool, len(models))
	for _, m := range models {
		seen[m.Name] = true
		if err := f.syncTenant(ctx, m); err != nil {
			log.Printf("follow: tenant %q: %v", m.Name, err)
			ok = false
		}
	}
	// Tenants the leader unloaded disappear here too.
	for _, name := range f.d.reg.Names() {
		if !seen[name] {
			if err := f.d.reg.Unload(ctx, name); err == nil {
				delete(f.incs, name)
				log.Printf("follow: unloaded %q (gone from leader)", name)
			}
		}
	}
	return ok
}

func (f *follower) leaderModels(ctx context.Context) ([]modelInfo, error) {
	body, err := f.get(ctx, "/v1/models")
	if err != nil {
		return nil, err
	}
	var out struct {
		Models []modelInfo `json:"models"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, fmt.Errorf("parse model list: %v", err)
	}
	return out.Models, nil
}

// syncTenant brings one tenant up to the leader's epoch: a snapshot
// load if the tenant is new locally, a drop-and-resync if the leader
// reloaded the name since the last sync, otherwise a delta pull.
func (f *follower) syncTenant(ctx context.Context, m modelInfo) error {
	t, err := f.d.reg.Acquire(m.Name)
	if err != nil {
		return f.loadFromSnapshot(ctx, m)
	}
	// A new leader incarnation (or a leader epoch behind the local one —
	// the same symptom when the leader predates incarnation reporting)
	// means the replica's epochs no longer speak about the model the
	// leader serves; deltas would never arrive. Re-bootstrap.
	if f.incs[m.Name] != m.Incarnation || m.Epoch < t.Monitor().Epoch() {
		t.Release()
		log.Printf("follow: leader reloaded %q (incarnation %d -> %d); re-syncing from snapshot",
			m.Name, f.incs[m.Name], m.Incarnation)
		if err := f.dropTenant(ctx, m.Name); err != nil {
			return err
		}
		return f.loadFromSnapshot(ctx, m)
	}
	defer t.Release()
	return f.pullDeltas(ctx, t, m.Name)
}

// dropTenant discards a stale local replica so the next poll (or this
// one's caller) re-bootstraps it from a fresh leader snapshot.
func (f *follower) dropTenant(ctx context.Context, name string) error {
	if err := f.d.reg.Unload(ctx, name); err != nil {
		return err
	}
	delete(f.incs, name)
	return nil
}

// loadFromSnapshot bootstraps a tenant: model weights, then the compact
// monitor snapshot, loaded frozen at the leader's epoch.
func (f *follower) loadFromSnapshot(ctx context.Context, m modelInfo) error {
	modelBytes, err := f.get(ctx, "/v1/models/"+m.Name+"/model")
	if err != nil {
		return err
	}
	net, err := napmon.LoadModel(bytes.NewReader(modelBytes))
	if err != nil {
		return fmt.Errorf("parse model: %v", err)
	}
	snapBytes, err := f.get(ctx, "/v1/models/"+m.Name+"/snapshot")
	if err != nil {
		return err
	}
	sc := f.d.serveCfg
	sc.InputShape = m.Shape
	t, err := f.d.reg.LoadSnapshot(m.Name, net, bytes.NewReader(snapBytes), sc)
	if err != nil {
		return fmt.Errorf("load snapshot: %v", err)
	}
	f.incs[m.Name] = m.Incarnation
	log.Printf("follow: loaded %q from snapshot at epoch %d (leader incarnation %d)",
		m.Name, t.Monitor().Epoch(), m.Incarnation)
	return nil
}

// pullDeltas fetches and applies every epoch delta the leader published
// past the follower's current epoch. A 410 means the leader's bounded
// log evicted entries the follower still needs: the only way back to
// convergence is a fresh snapshot, so the stale tenant is dropped and
// the next poll re-bootstraps it.
func (f *follower) pullDeltas(ctx context.Context, t *napmon.Tenant, name string) error {
	since := t.Monitor().Epoch()
	stream, err := f.get(ctx, fmt.Sprintf("/v1/models/%s/deltas?since=%d", name, since))
	if err != nil {
		if isGone(err) {
			log.Printf("follow: %q fell behind the leader's delta log; re-syncing from snapshot", name)
			return f.dropTenant(ctx, name)
		}
		return err
	}
	entries, err := napmon.DecodeDeltaStream(stream, len(t.Monitor().Neurons()))
	if err != nil {
		return fmt.Errorf("parse delta stream: %v", err)
	}
	for _, e := range entries {
		if err := t.ApplyDelta(e); err != nil {
			return fmt.Errorf("apply epoch %d: %v", e.Epoch, err)
		}
	}
	if len(entries) > 0 {
		log.Printf("follow: %q applied %d deltas, now at epoch %d", name, len(entries), t.Monitor().Epoch())
	}
	return nil
}

// goneError marks a 410 response so pullDeltas can tell "re-snapshot"
// apart from transient failures.
type goneError struct{ url string }

func (e *goneError) Error() string { return "410 gone: " + e.url }

func isGone(err error) bool {
	_, ok := err.(*goneError)
	return ok
}

// get fetches one leader path. Every request carries a deadline derived
// from the poll interval AND honors the caller's ctx — cancelling the
// replication loop (SIGTERM) aborts an in-flight snapshot or delta
// fetch immediately, including the body read below, which runs under
// the same request context.
func (f *follower) get(ctx context.Context, path string) ([]byte, error) {
	if f.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, f.timeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusGone {
		return nil, &goneError{url: path}
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, firstLine(body))
	}
	return body, nil
}

func firstLine(b []byte) string {
	for i, c := range b {
		if c == '\n' {
			return string(b[:i])
		}
	}
	return string(b)
}
