package registry

import (
	"napmon/internal/obs"
	"napmon/internal/serve"
)

// RegisterMetrics attaches the registry to a scrape registry:
// fleet-level series immediately, plus every tenant name's serving
// families (bound now for already-loaded tenants, and by Load for
// future ones).
//
// A tenant's series are serve.RegisterMetrics' families with a tenant
// label, plus napmon_tenant_up. They are registered once per name and
// resolve the name through Peek at scrape time, so whichever way a
// tenant was loaded — from flags, by PUT, or from a leader's snapshot
// — it exports the same series, a reload is followed, and an unload
// neither panics the scrape registry with duplicate series nor leaves
// callbacks pointing at a drained tenant: an unloaded name scrapes as
// napmon_tenant_up 0 with zeroed series until it returns.
func (r *Registry) RegisterMetrics(reg *obs.Registry) {
	r.metricsMu.Lock()
	r.obsReg = reg
	r.metricsMu.Unlock()

	reg.GaugeFunc("napmon_registry_tenants", "Number of loaded tenants.",
		func() float64 { return float64(r.Len()) })
	reg.GaugeFunc("napmon_registry_generation", "Tenant-table generation id; increments on every load and unload.",
		func() float64 { return float64(r.Generation()) })
	reg.CounterFunc("napmon_registry_loads_total", "Tenants loaded since start.", r.loads.Load)
	reg.CounterFunc("napmon_registry_unloads_total", "Tenants unloaded since start.", r.unloads.Load)
	reg.CounterFunc("napmon_registry_lookups_total", "Successful tenant acquisitions.", r.lookups.Load)

	for _, name := range r.Names() {
		if t := r.Peek(name); t != nil {
			r.bindTenantMetrics(t)
		}
	}
}

// bindTenantMetrics registers t's name's series on first sight of the
// name and tracks t's classes. Load calls it with r.mu held;
// RegisterMetrics calls it without. Both orders are safe: registration
// is keyed on the name, tracking is idempotent, and the callbacks
// re-resolve the tenant on every scrape.
func (r *Registry) bindTenantMetrics(t *Tenant) {
	r.metricsMu.Lock()
	defer r.metricsMu.Unlock()
	reg := r.obsReg
	if reg == nil {
		return
	}
	name := t.name
	m := r.metrics[name]
	if m == nil {
		lbl := obs.L("tenant", name)
		reg.GaugeFunc("napmon_tenant_up", "1 while the tenant is loaded and serving.",
			func() float64 {
				if r.Peek(name) != nil {
					return 1
				}
				return 0
			}, lbl)
		m = serve.RegisterMetrics(reg, func() *serve.Server {
			if t := r.Peek(name); t != nil {
				return t.srv
			}
			return nil
		}, lbl)
		r.metrics[name] = m
	}
	m.Track(t.srv)
}
