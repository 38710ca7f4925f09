package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"napmon/internal/obs"
)

func TestSplitList(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []string
	}{
		{"", nil},
		{" , ,", nil},
		{"napmon_epoch", []string{"napmon_epoch"}},
		{" a, b ,,c ", []string{"a", "b", "c"}},
	} {
		if got := splitList(tc.in); !slices.Equal(got, tc.want) {
			t.Errorf("splitList(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// serveDaemon stands in for a napmon-serve's two observability surfaces:
// /metrics renders the counters in m through the real exposition writer
// under tenant "default" (per-class series split in two, so the summed
// checks have something to sum) beside a second tenant whose series
// must never be counted, and /stats answers st. A metric left out of m
// is absent from the page.
func serveDaemon(t *testing.T, m map[string]uint64, st statsDoc) *httptest.Server {
	t.Helper()
	reg := obs.NewRegistry()
	for _, tenant := range []string{"default", "other"} {
		lbl := obs.L("tenant", tenant)
		for name, v := range m {
			if tenant == "other" {
				v += 1000 // an unrelated tenant's counts, far outside every drift
			}
			val := func(v uint64) func() uint64 { return func() uint64 { return v } }
			switch name {
			case "napmon_epoch":
				reg.GaugeFunc(name, "h", func() float64 { return float64(v) }, lbl)
			case "napmon_watched_total", "napmon_oop_total":
				reg.CounterFunc(name, "h", val(v/2), lbl, obs.L("class", "0"))
				reg.CounterFunc(name, "h", val(v-v/2), lbl, obs.L("class", "1"))
			default:
				reg.CounterFunc(name, "h", val(v), lbl)
			}
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		if err := reg.WriteText(w); err != nil {
			t.Error(err)
		}
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, _ *http.Request) {
		if err := json.NewEncoder(w).Encode(st); err != nil {
			t.Error(err)
		}
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestCrossCheck(t *testing.T) {
	metrics := func(mut func(map[string]uint64)) map[string]uint64 {
		m := map[string]uint64{
			"napmon_requests_submitted_total": 100,
			"napmon_requests_served_total":    90,
			"napmon_requests_shed_total":      3,
			"napmon_watched_total":            81,
			"napmon_oop_total":                7,
			"napmon_epoch":                    4,
		}
		if mut != nil {
			mut(m)
		}
		return m
	}
	agree := statsDoc{Tenant: "default", Submitted: 100, Served: 90, Shed: 3, Monitored: 81, OutOfPattern: 7, Epoch: 4}
	stats := func(mut func(*statsDoc)) statsDoc { s := agree; mut(&s); return s }
	for _, tc := range []struct {
		name    string
		metrics map[string]uint64
		stats   statsDoc
		drift   uint64
		wantErr string // "" = the surfaces agree
	}{
		{"counters agree", metrics(nil), agree, 0, ""},
		{"forward drift inside the allowance", metrics(nil), stats(func(s *statsDoc) { s.Served = 95 }), 5, ""},
		{"forward drift outside the allowance", metrics(nil), stats(func(s *statsDoc) { s.Served = 96 }), 5, "napmon_requests_served_total"},
		{"summed series drift outside the allowance", metrics(nil), stats(func(s *statsDoc) { s.Monitored = 90 }), 5, "napmon_watched_total"},
		{"stats behind metrics", metrics(nil), stats(func(s *statsDoc) { s.Submitted = 99 }), 1024, "napmon_requests_submitted_total"},
		{"required series absent", metrics(func(m map[string]uint64) { delete(m, "napmon_requests_shed_total") }), agree, 0,
			`napmon_requests_shed_total{tenant="default"} absent`},
		{"epoch stepped forward between scrapes", metrics(nil), stats(func(s *statsDoc) { s.Epoch = 5 }), 0, ""},
		{"napmon_epoch ahead of stats", metrics(func(m map[string]uint64) { m["napmon_epoch"] = 5 }), agree, 1024, "napmon_epoch{tenant=\"default\"} went backwards"},
		{"stats of another tenant", metrics(nil), stats(func(s *statsDoc) { s.Tenant = "other" }), 5, `napmon_requests_submitted_total{tenant="other"}`},
		{"stats name no tenant", metrics(nil), stats(func(s *statsDoc) { s.Tenant = "" }), 1024, "names no tenant"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := serveDaemon(t, tc.metrics, tc.stats)
			exp, _, err := fetchMetrics(srv.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			err = crossCheck(exp, srv.URL+"/stats", tc.drift)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("cross-check failed: %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("cross-check returned %v, want an error naming %q", err, tc.wantErr)
			}
		})
	}
}

// TestFetchRejects: a page the strict grammar refuses, or a non-200, is
// an error — with the raw page returned so main can show it.
func TestFetchRejects(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/missing" {
			http.NotFound(w, r)
			return
		}
		w.Write([]byte("napmon_epoch{ 4\n"))
	}))
	defer srv.Close()
	if _, raw, err := fetchMetrics(srv.URL + "/metrics"); err == nil || len(raw) == 0 {
		t.Fatalf("malformed exposition: err %v, raw page %q", err, raw)
	}
	if _, _, err := fetchMetrics(srv.URL + "/missing"); err == nil {
		t.Fatal("404 accepted")
	}
	exp, _, err := fetchMetrics(serveDaemon(t, nil, statsDoc{}).URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if err := crossCheck(exp, srv.URL+"/missing", 0); err == nil {
		t.Fatal("cross-check against a 404 stats endpoint passed")
	}
}
