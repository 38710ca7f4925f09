// Package registry is the multi-tenant fleet layer: one process, many
// named (model, monitor, server-config) tenants, hot-loaded and
// hot-unloaded while traffic flows. It reuses the immutable-generation
// shape the monitor's online updates are built on (internal/core,
// DESIGN.md "Online updates: epochs, grace periods"), one level up, plus
// a refcount, which a tenant needs and an epoch of plans does not:
//
//   - The tenant table is an immutable generation behind an atomic
//     pointer. Load and Unload publish a successor generation; lookups
//     never take the registry lock.
//   - Acquire pins a tenant with a load-increment-validate loop, so a
//     lookup can never resurrect a tenant whose unload already published
//     — and a pinned tenant can never be torn down under an in-flight
//     request.
//   - Unload removes the tenant from the current generation, drops the
//     registry's base reference, and drains: the tenant's serve.Server
//     shuts down gracefully (bounded by the grace budget) only after
//     the last pinned holder releases. In-flight batches are never
//     killed.
//
// Every tenant owns its own serving lanes, queue caps, and an
// epoch-keyed delta log feeding the replication path: Learn appends the
// published (epoch, delta) pair, DeltasSince serves the contiguous
// suffix past a follower's epoch, and Snapshot embeds the retained log
// so replicas can chain (internal/core snapshot format).
//
// The registry is also the one place serving metrics are registered:
// RegisterMetrics gives every tenant name, however it was loaded,
// serve's families under a tenant label, resolved by name at scrape
// time and removed when the name is unloaded.
package registry

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"napmon/internal/core"
	"napmon/internal/nn"
	"napmon/internal/obs"
	"napmon/internal/serve"
)

// DefaultTenant is the name of the implicit single-tenant lane: wire
// tenant id 0, the tenant cmd/napmon-serve loads from its flags, and
// the tenant napmon.Serve loads.
const DefaultTenant = "default"

var (
	// ErrNotFound is returned by lookups for a name or id that is not
	// loaded (or no longer loaded).
	ErrNotFound = errors.New("registry: tenant not found")
	// ErrExists is returned by Load when the name is already serving.
	ErrExists = errors.New("registry: tenant already loaded")
	// ErrClosed is returned after Close has begun.
	ErrClosed = errors.New("registry: closed")
	// ErrDeltaGap is returned by DeltasSince when the requested epoch
	// range is no longer retained in the delta log: the follower must
	// warm-start from a fresh snapshot instead of replaying.
	ErrDeltaGap = errors.New("registry: delta log no longer covers requested epoch; re-snapshot")
)

// Config sizes a Registry. The zero value of any field selects its
// default.
type Config struct {
	// Grace bounds an unloaded tenant's drain: accepted requests get
	// this long to finish before the tenant's server aborts (default
	// 30s).
	Grace time.Duration
	// DeltaLogSize is the per-tenant retained delta-log capacity in
	// epoch entries (default 1024). Followers lagging further than this
	// must re-snapshot.
	DeltaLogSize int
}

func (c Config) withDefaults() Config {
	if c.Grace == 0 {
		c.Grace = 30 * time.Second
	}
	if c.DeltaLogSize == 0 {
		c.DeltaLogSize = 1024
	}
	return c
}

// TenantConfig is everything one tenant serves with.
type TenantConfig struct {
	Net   *nn.Network
	Mon   *core.Monitor
	Serve serve.Config
}

// generation is one immutable snapshot of the tenant table. Lookups
// read it lock-free; Load/Unload publish successors under the registry
// mutex.
type generation struct {
	id     uint64
	byName map[string]*Tenant
	byID   map[uint32]*Tenant
}

// Registry is the concurrent tenant table. Construct with New; it is
// safe for any number of concurrent Acquire/Load/Unload callers.
type Registry struct {
	cfg Config

	// mu serializes the writers (Load/Unload/Close); lookups never take
	// it.
	mu      sync.Mutex
	closed  bool
	ids     map[string]uint32 // name → wire id, sticky across reload
	nextID  uint32
	lastInc uint64 // last incarnation handed out; keeps them strictly increasing

	cur atomic.Pointer[generation]

	loads   atomic.Uint64
	unloads atomic.Uint64
	lookups atomic.Uint64

	// metricsMu guards the scrape registry attachment and the
	// per-name series sets: a loaded name registers its labelled series
	// once, Unload removes them, and they resolve the name at scrape
	// time, so an unload/reload cycle cannot trip the registry's
	// duplicate-series panic.
	metricsMu sync.Mutex
	obsReg    *obs.Registry
	metrics   map[string]*serve.Metrics
}

// New builds an empty registry.
func New(cfg Config) *Registry {
	r := &Registry{
		cfg:     cfg.withDefaults(),
		ids:     map[string]uint32{DefaultTenant: 0},
		nextID:  1,
		metrics: make(map[string]*serve.Metrics),
	}
	r.cur.Store(&generation{id: 1, byName: map[string]*Tenant{}, byID: map[uint32]*Tenant{}})
	return r
}

// Tenant is one loaded serving lane. Handles returned by Acquire are
// pinned and must be Released exactly once; handles returned by Load
// are not pinned (they stay valid until Unload).
type Tenant struct {
	name string
	id   uint32
	inc  uint64
	reg  *Registry

	net *nn.Network
	mon *core.Monitor
	srv *serve.Server

	// refs counts pinned holders plus one base reference for being
	// loaded. Unload drops the base reference; at zero the tenant
	// drains exactly once.
	refs      atomic.Int64
	drainOnce sync.Once
	drained   chan struct{}

	// logMu serializes the update+log append pair so delta-log order is
	// exactly epoch publication order.
	logMu sync.Mutex
	log   deltaLog
}

// Name returns the tenant's registry name.
func (t *Tenant) Name() string { return t.name }

// ID returns the tenant's wire id (0 for the default tenant). Ids are
// sticky: reloading a name reuses its id.
func (t *Tenant) ID() uint32 { return t.id }

// Incarnation identifies this particular load of the name: wall-clock
// based and strictly increasing, so two loads never share a value even
// across registry (or process) restarts. A replication follower records
// the leader incarnation it synced from and re-snapshots when it
// changes — epochs restart on reload, so without this a reloaded
// tenant's follower would poll epochs the new incarnation never reaches
// and silently serve the stale model forever.
func (t *Tenant) Incarnation() uint64 { return t.inc }

// Server returns the tenant's serving front end.
func (t *Tenant) Server() *serve.Server { return t.srv }

// Monitor returns the tenant's monitor.
func (t *Tenant) Monitor() *core.Monitor { return t.mon }

// Network returns the tenant's network.
func (t *Tenant) Network() *nn.Network { return t.net }

// Release drops one pin taken by Acquire/AcquireID. When the last pin
// of an unloaded tenant drops, the drain starts: the tenant's server
// shuts down gracefully within the registry's grace budget.
func (t *Tenant) Release() {
	if t.refs.Add(-1) == 0 {
		t.drainOnce.Do(func() { go t.drain() })
	}
}

func (t *Tenant) drain() {
	ctx, cancel := context.WithTimeout(context.Background(), t.reg.cfg.Grace)
	defer cancel()
	_ = t.srv.Shutdown(ctx)
	close(t.drained)
}

// Learn absorbs per-class patterns into the tenant's monitor, publishes
// the new epoch through its server, and appends the (epoch, delta) pair
// to the tenant's replication log — the leader half of the follower
// feed. Returns the epoch now serving.
func (t *Tenant) Learn(delta map[int][]core.Pattern) (uint64, error) {
	t.logMu.Lock()
	defer t.logMu.Unlock()
	before := t.mon.Epoch()
	epoch, err := t.srv.Update(delta)
	if err != nil {
		return epoch, err
	}
	if epoch != before {
		t.log.append(core.DeltaEntry{Epoch: epoch, Gamma: -1, Delta: delta})
	}
	return epoch, nil
}

// UpdateGamma re-levels the tenant's serving γ as a logged epoch
// publication, so followers replay it like any other delta.
func (t *Tenant) UpdateGamma(gamma int) (uint64, error) {
	t.logMu.Lock()
	defer t.logMu.Unlock()
	before := t.mon.Epoch()
	epoch, err := t.srv.UpdateGamma(gamma)
	if err != nil {
		return epoch, err
	}
	if epoch != before {
		t.log.append(core.DeltaEntry{Epoch: epoch, Gamma: gamma})
	}
	return epoch, nil
}

// ApplyDelta replays one leader-published delta on a follower: the
// update must publish exactly the leader's epoch id (warm start pins
// the starting id, every publication increments by one, and entries
// apply in key order — any mismatch means divergence and fails loudly).
// The entry is appended to this tenant's own log, so a follower can in
// turn feed replicas of its own.
func (t *Tenant) ApplyDelta(e core.DeltaEntry) error {
	t.logMu.Lock()
	defer t.logMu.Unlock()
	cur := t.mon.Epoch()
	if e.Epoch <= cur {
		return nil // already applied (duplicate poll); keyed idempotence
	}
	if e.Epoch != cur+1 {
		return fmt.Errorf("registry: delta epoch %d does not follow local epoch %d", e.Epoch, cur)
	}
	var (
		epoch uint64
		err   error
	)
	if e.Gamma >= 0 {
		epoch, err = t.srv.UpdateGamma(e.Gamma)
	} else {
		epoch, err = t.srv.Update(e.Delta)
	}
	if err != nil {
		return err
	}
	if epoch != e.Epoch {
		return fmt.Errorf("registry: replay published epoch %d, leader published %d", epoch, e.Epoch)
	}
	t.log.append(e)
	return nil
}

// DeltasSince returns the retained delta entries with epoch keys
// strictly greater than since, in key order. ErrDeltaGap means the log
// has already evicted part of that range — the caller must warm-start
// from a fresh snapshot.
func (t *Tenant) DeltasSince(since uint64) ([]core.DeltaEntry, error) {
	t.logMu.Lock()
	defer t.logMu.Unlock()
	cur := t.mon.Epoch()
	if since >= cur {
		return nil, nil // caller is caught up (or ahead; nothing to serve)
	}
	entries, ok := t.log.since(since)
	if !ok {
		return nil, ErrDeltaGap
	}
	return entries, nil
}

// Snapshot writes the tenant's monitor snapshot with the retained delta
// log embedded as the tail. The cut (serving epoch and a copy of the
// log) is taken under the log mutex, so epoch and tail are consistent;
// the folds of pending overlays and the encoding run after it is
// released, so learns and follower polls do not wait for them.
func (t *Tenant) Snapshot(w io.Writer) error {
	t.logMu.Lock()
	write := t.mon.SnapshotCut(t.log.entries)
	t.logMu.Unlock()
	return write(w)
}

// validateName enforces the tenant-name grammar shared by the HTTP
// paths and metric labels: 1-64 chars of [A-Za-z0-9._-], not starting
// with a dot or dash.
func validateName(name string) error {
	if name == "" || len(name) > 64 {
		return fmt.Errorf("registry: tenant name must be 1-64 characters, got %d", len(name))
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case (c == '.' || c == '-' || c == '_') && i > 0:
		case c == '_':
		default:
			return fmt.Errorf("registry: tenant name %q: invalid character %q at %d", name, c, i)
		}
	}
	return nil
}

// Load constructs the tenant's serving stack and publishes it under
// name. The returned handle is not pinned — it stays valid until
// Unload; concurrent request paths should pin via Acquire.
func (r *Registry) Load(name string, tc TenantConfig) (*Tenant, error) {
	return r.load(name, tc, nil)
}

// load is the shared Load/LoadSnapshot body. tail seeds the tenant's
// delta log BEFORE the tenant is published: once a generation carries
// the tenant, a concurrent DeltasSince may run, and an empty log behind
// a warm-started (nonzero) epoch reads as an eviction gap — a chained
// follower would be told to re-snapshot for no reason.
func (r *Registry) load(name string, tc TenantConfig, tail []core.DeltaEntry) (*Tenant, error) {
	if err := validateName(name); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrClosed
	}
	g := r.cur.Load()
	if _, exists := g.byName[name]; exists {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	srv, err := serve.New(tc.Net, tc.Mon, tc.Serve)
	if err != nil {
		return nil, err
	}
	id, ok := r.ids[name]
	if !ok {
		id = r.nextID
		r.nextID++
		r.ids[name] = id
	}
	inc := uint64(time.Now().UnixNano())
	if inc <= r.lastInc {
		inc = r.lastInc + 1
	}
	r.lastInc = inc
	t := &Tenant{
		name:    name,
		id:      id,
		inc:     inc,
		reg:     r,
		net:     tc.Net,
		mon:     tc.Mon,
		srv:     srv,
		drained: make(chan struct{}),
		log:     deltaLog{cap: r.cfg.DeltaLogSize},
	}
	for _, e := range tail {
		t.log.append(e) // not yet published: no logMu needed
	}
	t.refs.Store(1) // the registry's base reference
	r.publish(g, func(ng *generation) {
		ng.byName[name] = t
		ng.byID[id] = t
	})
	r.loads.Add(1)
	r.bindTenantMetrics(t)
	return t, nil
}

// LoadSnapshot warm-starts a tenant from a leader snapshot: the monitor
// resumes at the leader's epoch id (replicated deltas then apply with
// identical keys) and the snapshot's embedded delta tail seeds this
// tenant's own log, so a follower can immediately feed replicas of its
// own. The snapshot already reflects the tail's effects — the tail is
// history, not replay work.
func (r *Registry) LoadSnapshot(name string, net *nn.Network, snap io.Reader, sc serve.Config) (*Tenant, error) {
	mon, tail, err := core.LoadSnapshot(snap)
	if err != nil {
		return nil, err
	}
	return r.load(name, TenantConfig{Net: net, Mon: mon, Serve: sc}, tail)
}

// publish installs a successor generation derived from g. Callers hold
// r.mu.
func (r *Registry) publish(g *generation, mutate func(*generation)) {
	ng := &generation{
		id:     g.id + 1,
		byName: make(map[string]*Tenant, len(g.byName)+1),
		byID:   make(map[uint32]*Tenant, len(g.byID)+1),
	}
	for n, t := range g.byName {
		ng.byName[n] = t
	}
	for id, t := range g.byID {
		ng.byID[id] = t
	}
	mutate(ng)
	r.cur.Store(ng)
}

// Unload removes the tenant from the serving generation and waits for
// its drain: the server shuts down only after every pinned holder
// releases, so in-flight requests are never dropped. ctx bounds only
// the wait — an expired ctx does not cancel the drain itself, which
// continues in the background under the grace budget.
func (r *Registry) Unload(ctx context.Context, name string) error {
	r.mu.Lock()
	g := r.cur.Load()
	t, ok := g.byName[name]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	r.publish(g, func(ng *generation) {
		delete(ng.byName, name)
		delete(ng.byID, t.id)
	})
	r.unloads.Add(1)
	r.unbindTenantMetrics(name)
	r.mu.Unlock()

	t.Release() // drop the base reference; drain fires at zero
	select {
	case <-t.drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Acquire pins the tenant named name for one unit of work; the caller
// must Release exactly once. The load-increment-validate loop closes
// the race with a concurrent Unload: if the tenant left the current
// generation between the lookup and the pin, the pin is dropped and the
// lookup retries on the fresh table — a drained tenant can never be
// handed out.
func (r *Registry) Acquire(name string) (*Tenant, error) {
	for {
		t := r.cur.Load().byName[name]
		if t == nil {
			return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
		}
		t.refs.Add(1)
		if r.cur.Load().byName[name] == t {
			r.lookups.Add(1)
			return t, nil
		}
		t.Release()
	}
}

// AcquireID is Acquire keyed by wire tenant id (the gateway's routing
// key).
func (r *Registry) AcquireID(id uint32) (*Tenant, error) {
	for {
		t := r.cur.Load().byID[id]
		if t == nil {
			return nil, fmt.Errorf("%w: id %d", ErrNotFound, id)
		}
		t.refs.Add(1)
		if r.cur.Load().byID[id] == t {
			r.lookups.Add(1)
			return t, nil
		}
		t.Release()
	}
}

// Peek returns the loaded tenant without pinning it, or nil. Metric
// callbacks use it — a scrape reads whatever generation is current and
// must not delay a drain.
func (r *Registry) Peek(name string) *Tenant {
	return r.cur.Load().byName[name]
}

// Names returns the loaded tenant names, sorted.
func (r *Registry) Names() []string {
	g := r.cur.Load()
	names := make([]string, 0, len(g.byName))
	for n := range g.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Len returns the number of loaded tenants.
func (r *Registry) Len() int { return len(r.cur.Load().byName) }

// Generation returns the tenant-table generation id, incremented by
// every Load and Unload.
func (r *Registry) Generation() uint64 { return r.cur.Load().id }

// Close unloads every tenant and refuses further loads. ctx bounds the
// wait for the drains.
func (r *Registry) Close(ctx context.Context) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	r.closed = true
	g := r.cur.Load()
	tenants := make([]*Tenant, 0, len(g.byName))
	for _, t := range g.byName {
		tenants = append(tenants, t)
	}
	r.publish(g, func(ng *generation) {
		ng.byName = map[string]*Tenant{}
		ng.byID = map[uint32]*Tenant{}
	})
	r.unloads.Add(uint64(len(tenants)))
	r.mu.Unlock()

	for _, t := range tenants {
		t.Release()
	}
	for _, t := range tenants {
		select {
		case <-t.drained:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// deltaLog is the bounded epoch-keyed replication log: entries in
// publication order, oldest evicted past cap. Guarded by the tenant's
// logMu.
type deltaLog struct {
	cap     int
	entries []core.DeltaEntry
}

func (l *deltaLog) append(e core.DeltaEntry) {
	l.entries = append(l.entries, e)
	if len(l.entries) > l.cap {
		// Drop the oldest; copy down so the backing array does not pin
		// evicted patterns.
		n := copy(l.entries, l.entries[len(l.entries)-l.cap:])
		l.entries = l.entries[:n]
	}
}

// since returns the entries with keys > s. ok is false when the range
// is not provably contiguous from s — the oldest retained entry is
// already past s+1, so something between was evicted.
func (l *deltaLog) since(s uint64) ([]core.DeltaEntry, bool) {
	if len(l.entries) == 0 {
		// No retained entries but the caller is behind the current
		// epoch (DeltasSince checked): the history is gone.
		return nil, false
	}
	if l.entries[0].Epoch > s+1 {
		return nil, false
	}
	i := sort.Search(len(l.entries), func(i int) bool { return l.entries[i].Epoch > s })
	out := make([]core.DeltaEntry, len(l.entries)-i)
	copy(out, l.entries[i:])
	return out, true
}
