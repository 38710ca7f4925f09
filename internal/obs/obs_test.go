package obs

import (
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// one is a callback for a counter that reads 1.
func one() uint64 { return 1 }

// TestRegistryRoundTrip renders a registry with every metric kind and
// feeds the output back through the package's own validating parser —
// the same loop `make smoke` runs against a live daemon.
func TestRegistryRoundTrip(t *testing.T) {
	reg := NewRegistry()
	var served atomic.Uint64
	reg.CounterFunc("test_served_total", "requests served", served.Load)
	served.Add(42)
	reg.CounterFunc("test_func_total", "func-backed counter", func() uint64 { return 7 })
	reg.CounterFloatFunc("test_seconds_total", "float-valued counter", func() float64 { return 1.5 })
	reg.GaugeFunc("test_queue_depth", "queue depth", func() float64 { return 10 })
	reg.GaugeFunc("test_ratio", "a fractional gauge", func() float64 { return 0.375 })
	for _, class := range []string{"0", "1"} {
		reg.CounterFunc("test_oop_total", "per-class OOP verdicts", func() uint64 { return 3 }, L("class", class))
	}
	h := &Histogram{}
	reg.HistogramFunc("test_latency_seconds", "stage latency", func() *Histogram { return h }, 1e-9, L("stage", "total"))
	for _, ns := range []int64{100, 1000, 50_000, 2_000_000, 2_100_000} {
		h.Record(ns)
	}
	reg.HistogramFunc("test_unbound_seconds", "a histogram whose owner is gone", func() *Histogram { return nil }, 1e-9)

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
	if got, ok := exp.Value("test_seconds_total", nil); !ok || got != 1.5 {
		t.Fatalf("test_seconds_total = %v ok=%v", got, ok)
	}
	if got, ok := exp.Value("test_queue_depth", nil); !ok || got != 10 {
		t.Fatalf("test_queue_depth = %v ok=%v", got, ok)
	}
	if got, ok := exp.Value("test_ratio", nil); !ok || got != 0.375 {
		t.Fatalf("test_ratio = %v ok=%v", got, ok)
	}
	if sum, n := exp.SumAcross("test_oop_total", nil); sum != 6 || n != 2 {
		t.Fatalf("test_oop_total sum=%v n=%d", sum, n)
	}
	if sum, n := exp.SumAcross("test_oop_total", map[string]string{"class": "1"}); sum != 3 || n != 1 {
		t.Fatalf("test_oop_total{class=1} sum=%v n=%d", sum, n)
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
	if got, ok := exp.Value("test_unbound_seconds_count", nil); !ok || got != 0 {
		t.Fatalf("nil histogram _count = %v ok=%v, want an empty histogram", got, ok)
	}
	if exp.Has("test_absent") {
		t.Fatal("Has(absent) = true")
	}
}

func TestHandler(t *testing.T) {
	reg := NewRegistry()
	reg.CounterFunc("test_total", "help", one)
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
	reg.CounterFunc("test_total", "help with \\ backslash\nand newline", one,
		L("path", `a"b\c`+"\nd"))
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
		"bad metric name": func(r *Registry) { r.CounterFunc("9bad", "h", one) },
		"bad label name":  func(r *Registry) { r.CounterFunc("ok_total", "h", one, L("9bad", "v")) },
		"reserved le":     func(r *Registry) { r.HistogramFunc("h_seconds", "h", noHist, 1, L("le", "x")) },
		"kind mismatch": func(r *Registry) {
			r.CounterFunc("dual", "h", one)
			r.GaugeFunc("dual", "h", func() float64 { return 1 })
		},
		"duplicate series": func(r *Registry) {
			r.CounterFunc("dup_total", "h", one, L("a", "1"), L("b", "2"))
			r.CounterFunc("dup_total", "h", one, L("b", "2"), L("a", "1"))
		},
		"bad scale": func(r *Registry) { r.HistogramFunc("h_seconds", "h", noHist, 0) },
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

func noHist() *Histogram { return nil }

// TestRegistryConcurrentScrape scrapes while counters and histograms
// are being written and new series registered — -race coverage for the
// scrape path, and for a tenant that loads while /metrics is read.
func TestRegistryConcurrentScrape(t *testing.T) {
	reg := NewRegistry()
	var c atomic.Uint64
	reg.CounterFunc("test_total", "h", c.Load)
	h := &Histogram{}
	reg.HistogramFunc("test_seconds", "h", func() *Histogram { return h }, 1e-9)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				c.Add(1)
				h.Record(12345)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			l := L("tenant", string(rune('a'+i%26))+string(rune('a'+i/26)))
			reg.CounterFunc("test_total", "h", c.Load, l)
			reg.HistogramFunc("test_seconds", "h", func() *Histogram { return h }, 1e-9, l)
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

// TestRegistryUnregister: Unregister removes exactly the series that
// carry the label, drops a family it empties, and lets the same series
// register again.
func TestRegistryUnregister(t *testing.T) {
	reg := NewRegistry()
	reg.GaugeFunc("test_up", "h", func() float64 { return 1 }, L("tenant", "a"))
	reg.GaugeFunc("test_up", "h", func() float64 { return 1 }, L("tenant", "b"))
	reg.CounterFunc("test_oop_total", "h", one, L("tenant", "a"), L("class", "0"))
	reg.CounterFunc("test_fleet_total", "h", one)
	render := func() string {
		t.Helper()
		var sb strings.Builder
		if err := reg.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		if _, err := ParseExposition(strings.NewReader(sb.String())); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}

	reg.Unregister(L("tenant", "a"))
	out := render()
	for _, gone := range []string{`tenant="a"`, "test_oop_total"} {
		if strings.Contains(out, gone) {
			t.Fatalf("%s still rendered after Unregister:\n%s", gone, out)
		}
	}
	for _, kept := range []string{`test_up{tenant="b"} 1`, "test_fleet_total 1"} {
		if !strings.Contains(out, kept) {
			t.Fatalf("%s lost to Unregister:\n%s", kept, out)
		}
	}

	reg.GaugeFunc("test_up", "h", func() float64 { return 1 }, L("tenant", "a"))
	reg.CounterFunc("test_oop_total", "h", one, L("tenant", "a"), L("class", "0"))
	if out := render(); !strings.Contains(out, `test_up{tenant="a"} 1`) || !strings.Contains(out, `test_oop_total{class="0",tenant="a"} 1`) {
		t.Fatalf("re-registered series missing:\n%s", out)
	}
}
