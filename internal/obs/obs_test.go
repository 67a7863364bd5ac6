package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterVecLabeledSeries(t *testing.T) {
	reg := NewRegistry()
	v := reg.NewCounterVec("test_total", "A test counter.")
	v.With(Labels{Machine: "VIRAM", Kernel: "corner-turn"}).Inc()
	v.With(Labels{Machine: "VIRAM", Kernel: "corner-turn"}).Add(2)
	v.With(Labels{Machine: "Imagine", Kernel: "cslc"}).Inc()

	vals := v.Values()
	if len(vals) != 2 {
		t.Fatalf("got %d series, want 2: %+v", len(vals), vals)
	}
	// Sorted by machine then kernel.
	if vals[0].Labels.Machine != "Imagine" || vals[0].Value != 1 {
		t.Fatalf("vals[0] = %+v", vals[0])
	}
	if vals[1].Labels.Machine != "VIRAM" || vals[1].Value != 3 {
		t.Fatalf("vals[1] = %+v", vals[1])
	}
}

func TestCounterVecZeroLabelsDiscarded(t *testing.T) {
	reg := NewRegistry()
	v := reg.NewCounterVec("test_total", "A test counter.")
	v.With(Labels{}).Inc()
	v.With(Labels{}).Add(10)
	if vals := v.Values(); len(vals) != 0 {
		t.Fatalf("zero-label observations minted series: %+v", vals)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("empty family exposed:\n%s", buf.String())
	}
	// The unlabeled total still counts them.
	v.With(Labels{Machine: "VIRAM", Kernel: "cslc"}).Inc()
	if got := v.Total(); got != 12 {
		t.Fatalf("Total = %d, want 12", got)
	}
}

// TestVectorsConcurrent hammers one counter family and one histogram
// family from many goroutines while exposition runs, for the race
// detector's benefit and to check the final totals.
func TestVectorsConcurrent(t *testing.T) {
	reg := NewRegistry()
	cv := reg.NewCounterVec("c_total", "counter")
	hv := reg.NewHistogramVec("h_seconds", "histogram", nil)

	cells := []Labels{
		{Machine: "VIRAM", Kernel: "corner-turn"},
		{Machine: "Imagine", Kernel: "cslc"},
		{Machine: "Raw", Kernel: "beam-steering"},
	}
	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				l := cells[(seed+i)%len(cells)]
				cv.With(l).Inc()
				hv.With(l).Observe(time.Duration(i%50) * time.Millisecond)
			}
		}(w)
	}
	// Exposition concurrent with the writers must not race.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var buf bytes.Buffer
			if err := reg.WritePrometheus(&buf); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done

	var total float64
	for _, lv := range cv.Values() {
		total += lv.Value
	}
	if want := float64(workers * perWorker); total != want {
		t.Fatalf("counter total = %v, want %v", total, want)
	}
	var hTotal uint64
	for _, l := range cells {
		hTotal += hv.With(l).Count()
	}
	if want := uint64(workers * perWorker); hTotal != want {
		t.Fatalf("histogram count = %d, want %d", hTotal, want)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{0.01, 0.1, 1})
	h.Observe(5 * time.Millisecond)    // le 0.01
	h.Observe(10 * time.Millisecond)   // le 0.01 (boundary is inclusive)
	h.Observe(50 * time.Millisecond)   // le 0.1
	h.Observe(500 * time.Millisecond)  // le 1
	h.Observe(5000 * time.Millisecond) // +Inf

	bounds, cum := h.Cumulative()
	if len(bounds) != 3 {
		t.Fatalf("bounds = %v", bounds)
	}
	want := []uint64{2, 3, 4}
	for i := range want {
		if cum[i] != want[i] {
			t.Fatalf("cum[%d] = %d, want %d (cum=%v)", i, cum[i], want[i], cum)
		}
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if got, want := h.Sum(), 5.565; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
}

func TestGaugeVec(t *testing.T) {
	reg := NewRegistry()
	gv := reg.NewGaugeVec("ratio", "Model error, per cell.")
	cell := Labels{Machine: "VIRAM", Kernel: "corner-turn"}
	gv.With(cell).Set(1.51)
	gv.With(cell).Set(1.49) // gauges overwrite, not accumulate
	if got := gv.With(cell).Value(); got != 1.49 {
		t.Fatalf("gauge = %v, want 1.49", got)
	}
	// Zero labels are discarded, never exposed.
	gv.With(Labels{}).Set(99)
	vals := gv.Values()
	if len(vals) != 1 || vals[0].Labels != cell || vals[0].Value != 1.49 {
		t.Fatalf("values = %+v", vals)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	reg := NewRegistry()
	cv := reg.NewCounterVec("jobs_total", "Jobs, per cell.")
	gv := reg.NewGaugeVec("err_ratio", "Model error, per cell.")
	hv := reg.NewHistogramVec("lat_seconds", "Latency, per cell.", []float64{0.1, 1})
	cv.With(Labels{Machine: "VIRAM", Kernel: "corner-turn"}).Add(7)
	gv.With(Labels{Machine: "VIRAM", Kernel: "corner-turn"}).Set(1.5)
	hv.With(Labels{Machine: "VIRAM", Kernel: "corner-turn"}).Observe(50 * time.Millisecond)
	hv.With(Labels{Machine: "VIRAM", Kernel: "corner-turn"}).Observe(30 * time.Second)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP jobs_total Jobs, per cell.",
		"# TYPE jobs_total counter",
		`jobs_total{machine="VIRAM",kernel="corner-turn"} 7`,
		"# TYPE err_ratio gauge",
		`err_ratio{machine="VIRAM",kernel="corner-turn"} 1.5`,
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{machine="VIRAM",kernel="corner-turn",le="0.1"} 1`,
		`lat_seconds_bucket{machine="VIRAM",kernel="corner-turn",le="1"} 1`,
		`lat_seconds_bucket{machine="VIRAM",kernel="corner-turn",le="+Inf"} 2`,
		`lat_seconds_sum{machine="VIRAM",kernel="corner-turn"} 30.05`,
		`lat_seconds_count{machine="VIRAM",kernel="corner-turn"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Every non-comment line is `name{labels} value` — a scrape parser's
	// minimal contract: exactly one space separating sample and value.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "# ") {
			continue
		}
		if got := len(strings.Split(line, " ")); got != 2 {
			t.Errorf("sample line has %d fields, want 2: %q", got, line)
		}
	}
}

// TestWriteTextIsUnlabeledSubset pins the two renderings of one
// registry: families in registration order, a family without samples
// left out, and the flat text exactly the unlabeled sample lines.
func TestWriteTextIsUnlabeledSubset(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter("up_total", "Unlabeled.").Add(3)
	reg.Func("by_kind", "Labeled.", "gauge", func() []Sample {
		return []Sample{{Labels: []string{"kind", "a"}, Value: "1"}}
	})
	reg.Func("empty", "No samples.", "gauge", func() []Sample { return nil })
	reg.Uint("last", "", "gauge", func() uint64 { return 7 })
	var prom, text bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	wantProm := "# HELP up_total Unlabeled.\n# TYPE up_total counter\nup_total 3\n" +
		"# HELP by_kind Labeled.\n# TYPE by_kind gauge\nby_kind{kind=\"a\"} 1\n" +
		"# TYPE last gauge\nlast 7\n"
	if prom.String() != wantProm {
		t.Errorf("prometheus = %q, want %q", prom.String(), wantProm)
	}
	if want := "up_total 3\nlast 7\n"; text.String() != want {
		t.Errorf("text = %q, want %q", text.String(), want)
	}
}

func TestPromLabelEscaping(t *testing.T) {
	var buf bytes.Buffer
	l := Labels{Machine: `a\b"c`, Kernel: "x\ny"}
	writePromSample(&buf, "m_total", "1", l.pairs()...)
	want := `m_total{machine="a\\b\"c",kernel="x\ny"} 1` + "\n"
	if buf.String() != want {
		t.Fatalf("escaped sample = %q, want %q", buf.String(), want)
	}
}

func TestPromHelpEscaping(t *testing.T) {
	var buf bytes.Buffer
	writePromHeader(&buf, "m_total", "line1\nline2 \\ end", "counter")
	want := "# HELP m_total line1\\nline2 \\\\ end\n# TYPE m_total counter\n"
	if buf.String() != want {
		t.Fatalf("header = %q, want %q", buf.String(), want)
	}
}

func TestRequestIDContext(t *testing.T) {
	if id := RequestID(context.Background()); id != "" {
		t.Fatalf("empty context carries ID %q", id)
	}
	ctx := WithRequestID(context.Background(), "abc123")
	if id := RequestID(ctx); id != "abc123" {
		t.Fatalf("RequestID = %q", id)
	}
	a, b := NewRequestID(), NewRequestID()
	if a == b || len(a) != 16 {
		t.Fatalf("generated IDs: %q, %q", a, b)
	}
}

func TestInstrumentEchoesRequestID(t *testing.T) {
	var seen string
	h := Instrument(nil, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = RequestID(r.Context())
		w.WriteHeader(http.StatusTeapot)
	}))

	// Client-supplied ID is propagated and echoed verbatim.
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/x", nil)
	req.Header.Set(RequestIDHeader, "client-id-1")
	h.ServeHTTP(rec, req)
	if seen != "client-id-1" || rec.Header().Get(RequestIDHeader) != "client-id-1" {
		t.Fatalf("ctx=%q header=%q", seen, rec.Header().Get(RequestIDHeader))
	}

	// Absent ID: one is generated, present in both context and header.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
	if seen == "" || rec.Header().Get(RequestIDHeader) != seen {
		t.Fatalf("generated ctx=%q header=%q", seen, rec.Header().Get(RequestIDHeader))
	}
}

func TestInstrumentAccessLog(t *testing.T) {
	var buf bytes.Buffer
	logger := NewLogger(&buf, "json")
	h := Instrument(logger, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		w.Write([]byte("nope"))
	}))
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/v1/jobs/zzz", nil)
	req.Header.Set(RequestIDHeader, "rid-9")
	h.ServeHTTP(rec, req)

	var entry map[string]any
	if err := json.Unmarshal(buf.Bytes(), &entry); err != nil {
		t.Fatalf("access log is not JSON: %v\n%s", err, buf.String())
	}
	if entry["msg"] != "http_request" || entry["request_id"] != "rid-9" ||
		entry["path"] != "/v1/jobs/zzz" || entry["status"] != float64(404) ||
		entry["bytes"] != float64(4) {
		t.Fatalf("log entry: %v", entry)
	}
}

func TestNewLoggerTextFormat(t *testing.T) {
	var buf bytes.Buffer
	NewLogger(&buf, "text").Info("hello", "k", "v")
	if !strings.Contains(buf.String(), "msg=hello") || !strings.Contains(buf.String(), "k=v") {
		t.Fatalf("text log: %q", buf.String())
	}
}
