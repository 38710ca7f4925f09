package obs

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestRegistryRoundTrip renders a registry with every metric kind and
// feeds the output back through the package's own validating parser —
// the same loop `make smoke` runs against a live daemon.
func TestRegistryRoundTrip(t *testing.T) {
	reg := NewRegistry()
	served := reg.NewCounter("test_served_total", "requests served")
	served.Add(41)
	served.Inc()
	reg.CounterFunc("test_func_total", "func-backed counter", func() uint64 { return 7 })
	depth := reg.NewGauge("test_queue_depth", "queue depth")
	depth.Set(12)
	depth.Add(-2)
	reg.GaugeFunc("test_ratio", "a fractional gauge", func() float64 { return 0.375 })
	for _, class := range []string{"0", "1"} {
		c := reg.NewCounter("test_oop_total", "per-class OOP verdicts", L("class", class))
		c.Add(3)
	}
	h := reg.NewHistogram("test_latency_seconds", "stage latency", 1e-9, L("stage", "total"))
	for _, ns := range []int64{100, 1000, 50_000, 2_000_000, 2_100_000} {
		h.Record(ns)
	}

	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()

	exp, err := ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatalf("own output failed own parser: %v\n%s", err, text)
	}
	if got, ok := exp.Value("test_served_total", nil); !ok || got != 42 {
		t.Fatalf("test_served_total = %v ok=%v", got, ok)
	}
	if got, ok := exp.Value("test_func_total", nil); !ok || got != 7 {
		t.Fatalf("test_func_total = %v ok=%v", got, ok)
	}
	if got, ok := exp.Value("test_queue_depth", nil); !ok || got != 10 {
		t.Fatalf("test_queue_depth = %v ok=%v", got, ok)
	}
	if got, ok := exp.Value("test_ratio", nil); !ok || got != 0.375 {
		t.Fatalf("test_ratio = %v ok=%v", got, ok)
	}
	if sum, n := exp.SumAcross("test_oop_total"); sum != 6 || n != 2 {
		t.Fatalf("test_oop_total sum=%v n=%d", sum, n)
	}
	if exp.Types["test_latency_seconds"] != "histogram" {
		t.Fatalf("histogram TYPE missing: %v", exp.Types)
	}
	if got, ok := exp.Value("test_latency_seconds_count", map[string]string{"stage": "total"}); !ok || got != 5 {
		t.Fatalf("histogram _count = %v ok=%v", got, ok)
	}
	wantSum := float64(100+1000+50_000+2_000_000+2_100_000) * 1e-9
	if got, ok := exp.Value("test_latency_seconds_sum", map[string]string{"stage": "total"}); !ok || got != wantSum {
		t.Fatalf("histogram _sum = %v want %v", got, wantSum)
	}
	if !exp.Has("test_latency_seconds") {
		t.Fatal("Has(histogram) = false")
	}
	if exp.Has("test_absent") {
		t.Fatal("Has(absent) = true")
	}
}

func TestHandler(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter("test_total", "help").Inc()
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != ContentType {
		t.Fatalf("content type %q", ct)
	}
	if _, err := ParseExposition(rec.Body); err != nil {
		t.Fatal(err)
	}
}

func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter("test_total", "help with \\ backslash\nand newline",
		L("path", `a"b\c`+"\nd")).Inc()
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	exp, err := ParseExposition(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("escaped output failed parser: %v\n%s", err, sb.String())
	}
	if got, ok := exp.Value("test_total", map[string]string{"path": "a\"b\\c\nd"}); !ok || got != 1 {
		t.Fatalf("escaped label round trip: got %v ok=%v in\n%s", got, ok, sb.String())
	}
}

func TestRegistryPanicsOnMisuse(t *testing.T) {
	cases := map[string]func(*Registry){
		"bad metric name": func(r *Registry) { r.NewCounter("9bad", "h") },
		"bad label name":  func(r *Registry) { r.NewCounter("ok_total", "h", L("9bad", "v")) },
		"reserved le":     func(r *Registry) { r.NewHistogram("h_seconds", "h", 1, L("le", "x")) },
		"kind mismatch": func(r *Registry) {
			r.NewCounter("dual", "h")
			r.NewGauge("dual", "h")
		},
		"duplicate series": func(r *Registry) {
			r.NewCounter("dup_total", "h", L("a", "1"), L("b", "2"))
			r.NewCounter("dup_total", "h", L("b", "2"), L("a", "1"))
		},
		"bad scale": func(r *Registry) { r.NewHistogram("h_seconds", "h", 0) },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn(NewRegistry())
		}()
	}
}

// TestRegistryConcurrentScrape scrapes while counters and histograms
// are being written — -race coverage for the scrape path.
func TestRegistryConcurrentScrape(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("test_total", "h")
	h := reg.NewHistogram("test_seconds", "h", 1e-9)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				c.Inc()
				h.Record(12345)
			}
		}
	}()
	for i := 0; i < 50; i++ {
		var sb strings.Builder
		if err := reg.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		if _, err := ParseExposition(strings.NewReader(sb.String())); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
