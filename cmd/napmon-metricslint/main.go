// Command napmon-metricslint validates a live /metrics endpoint: it
// fetches the page, runs it through the strict internal exposition
// parser (internal/obs — the same grammar the exposition writer
// emits), asserts that every -require'd series is present, and
// optionally cross-checks one tenant's serving counters against the same
// daemon's stats JSON for that tenant. It is the /metrics step of `make smoke`:
// a daemon that serves an unparseable exposition, silently drops a
// series, or reports different numbers on its two observability
// surfaces exits 1 here.
//
// Usage:
//
//	napmon-metricslint -url http://127.0.0.1:8080/metrics \
//	    [-require napmon_requests_served_total,napmon_oop_total,...] \
//	    [-stats-url http://127.0.0.1:8080/v1/models/default/stats]
//
// -require takes a comma-separated list of metric names; a histogram is
// satisfied by its _bucket/_sum/_count series. -stats-url enables the
// cross-check: the series labelled with the tenant the stats JSON names
// — served/submitted counters and the monitored / out-of-pattern
// tallies summed over that tenant's classes — must agree with it. The two
// surfaces are sampled at slightly different instants, so the check
// tolerates forward drift on counters that may tick between the two
// GETs (second sample >= first, within -drift), but not disagreement
// beyond it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"

	"napmon/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("napmon-metricslint: ")
	var (
		url      = flag.String("url", "http://127.0.0.1:8080/metrics", "metrics endpoint to validate")
		require  = flag.String("require", "", "comma-separated metric names that must be present")
		statsURL = flag.String("stats-url", "", "matching /stats endpoint to cross-check counters against (empty = skip)")
		drift    = flag.Uint64("drift", 1024, "allowed forward motion of a counter between the two scrapes")
	)
	flag.Parse()

	exp, raw, err := fetchMetrics(*url)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parsed %d samples across %d families from %s\n", len(exp.Samples), len(exp.Types), *url)

	failed := false
	for _, name := range splitList(*require) {
		if !exp.Has(name) {
			log.Printf("FAIL: required series %s absent", name)
			failed = true
		}
	}

	if *statsURL != "" {
		if err := crossCheck(exp, *statsURL, *drift); err != nil {
			log.Printf("FAIL: %v", err)
			failed = true
		} else {
			fmt.Printf("cross-check against %s ok\n", *statsURL)
		}
	}

	if failed {
		os.Stderr.Write(raw)
		os.Exit(1)
	}
	fmt.Println("ok")
}

// splitList splits a comma-separated flag value, dropping empties.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// fetchMetrics GETs and strictly parses one exposition, returning the
// raw page too so failures can show what the daemon actually served.
func fetchMetrics(url string) (*obs.Exposition, []byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	exp, err := obs.ParseExposition(strings.NewReader(string(raw)))
	if err != nil {
		return nil, raw, fmt.Errorf("exposition invalid: %w", err)
	}
	return exp, raw, nil
}

// statsDoc is the subset of the /stats JSON the cross-check reads.
type statsDoc struct {
	Tenant       string `json:"tenant"`
	Submitted    uint64 `json:"submitted"`
	Served       uint64 `json:"served"`
	Monitored    uint64 `json:"monitored"`
	OutOfPattern uint64 `json:"out_of_pattern"`
	Epoch        uint64 `json:"epoch"`
}

// crossCheck fetches /stats and holds the exposition's series for the
// tenant it names to it. The metrics scrape happened first, so live
// traffic may have advanced a counter between the two samples — each
// check therefore requires stats >= metrics value, within drift.
func crossCheck(exp *obs.Exposition, statsURL string, drift uint64) error {
	resp, err := http.Get(statsURL)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", statsURL, resp.Status)
	}
	var st statsDoc
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return fmt.Errorf("decode %s: %w", statsURL, err)
	}
	if st.Tenant == "" {
		return fmt.Errorf("%s names no tenant", statsURL)
	}
	tenant := map[string]string{"tenant": st.Tenant}
	checks := []struct {
		metric string
		summed bool
		stats  uint64
	}{
		{"napmon_requests_submitted_total", false, st.Submitted},
		{"napmon_requests_served_total", false, st.Served},
		{"napmon_watched_total", true, st.Monitored},
		{"napmon_oop_total", true, st.OutOfPattern},
	}
	for _, c := range checks {
		var mv float64
		if c.summed {
			mv, _ = exp.SumAcross(c.metric, tenant)
		} else {
			v, ok := exp.Value(c.metric, tenant)
			if !ok {
				return fmt.Errorf("%s{tenant=%q} absent from exposition", c.metric, st.Tenant)
			}
			mv = v
		}
		m := uint64(mv)
		if c.stats < m || c.stats-m > drift {
			return fmt.Errorf("%s{tenant=%q}: metrics say %d, stats say %d (allowed forward drift %d)",
				c.metric, st.Tenant, m, c.stats, drift)
		}
	}
	// Epoch is a gauge, not a counter: it may step forward between the
	// scrapes under live /learn traffic, never backward.
	if v, ok := exp.Value("napmon_epoch", tenant); ok && st.Epoch < uint64(v) {
		return fmt.Errorf("napmon_epoch{tenant=%q} went backwards: metrics %v, stats %d", st.Tenant, v, st.Epoch)
	}
	return nil
}
