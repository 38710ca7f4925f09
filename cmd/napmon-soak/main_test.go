package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
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
			failures: 0, mismatches: 1,
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
napmon_requests_served_total 42
# TYPE napmon_requests_shed_total counter
napmon_requests_shed_total 3
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
		{"missing series", serve(http.StatusOK, strings.Join(strings.Split(good, "\n")[:4], "\n")+"\n"),
			"napmon_gateway_frames_dropped_total missing"},
		{"malformed exposition", serve(http.StatusOK, "napmon_requests_served_total forty-two\n"), "parse"},
		{"non-200 status", serve(http.StatusServiceUnavailable, good), "503"},
	} {
		if _, err := scrape(tc.url); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}
