package svc

import (
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"sigkern/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the /metrics golden files")

// feedMetrics records a fixed sequence of observations. Each recorder
// fires a different number of times, so a family wired to the wrong
// counter changes the golden bodies; two observations carry zero
// labels, which count in the unlabeled totals and mint no series.
func feedMetrics(m *Metrics) {
	ct := obs.Labels{Machine: "VIRAM", Kernel: "corner-turn"}
	cs := obs.Labels{Machine: "Imagine", Kernel: "cslc"}
	times := func(n int, f func()) {
		for i := 0; i < n; i++ {
			f()
		}
	}
	m.queued.Add(9)
	m.running.Add(4)
	m.jobFinished(ct, true, true, false, false, 120*time.Millisecond)
	m.jobFinished(ct, true, true, false, false, 80*time.Millisecond)
	m.jobFinished(cs, true, false, true, false, 3*time.Second)
	m.jobFinished(cs, false, false, false, true, 0)
	m.jobFinished(obs.Labels{}, false, true, false, false, 40*time.Microsecond)
	m.cacheHits.With(ct).Inc()
	m.cacheHits.With(obs.Labels{}).Inc()
	m.cyclesServed.Add(12345 + 7 + 1_000_000)
	m.cacheMisses.With(ct).Inc()
	m.cacheMisses.With(cs).Add(2)
	m.coalesced.With(ct).Add(3)
	m.retries.With(cs).Add(5)
	m.determinism.With(ct).Add(6)
	times(7, func() { m.loadShed(PriorityInteractive) })
	times(8, func() { m.loadShed(PriorityBatch) })
	for n, c := range []*obs.Counter{m.budgetDrops, m.expiredDrops, m.brownoutJobs} {
		c.Add(uint64(10 + n))
	}
	m.brownoutOn.Store(true)
	m.batchGroups.Add(13)
	m.batchCells.Add(39)
	for c, n := range map[*obs.Counter]uint64{m.batchCancels: 14, m.machineBuilds: 16, m.tasksHeld: 19, m.breakerDrops: 20, m.journalErrs: 21} {
		c.Add(n)
	}
	m.estimates.With(cs).Add(22)
	m.modelObserved(ct, 1.25, true)
	times(23, func() { m.modelObserved(cs, 2.5, false) })
}

// memoSample matches a sample of the process-wide memo families, whose
// values depend on what else the test binary has run.
var memoSample = regexp.MustCompile(`(?m)^(simserved_process_memo_\w+\{[^}]*\}) \S+$`)

// TestMetricsFormatsMatchGolden scrapes the three /metrics formats of a
// fresh Service after feedMetrics. The Prometheus and JSON bodies must
// equal the golden files (go test -update rewrites them), with the
// memo families' values masked, and the flat text must be the unlabeled
// sample lines of the Prometheus body.
func TestMetricsFormatsMatchGolden(t *testing.T) {
	s := NewService(Options{Pool: PoolOptions{Workers: 1}})
	defer s.Close()
	feedMetrics(s.Metrics())
	h := s.Handler()
	scrape := func(format string) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format="+format, nil))
		return memoSample.ReplaceAllString(rec.Body.String(), "$1 X")
	}
	prom := scrape("prometheus")
	matchGolden(t, "testdata/metrics.prom", prom)
	matchGolden(t, "testdata/metrics.json", scrape("json"))
	if text, want := scrape("text"), unlabeledLines(prom); text != want {
		t.Errorf("flat text is not the unlabeled Prometheus samples:\n--- got\n%s--- want\n%s", text, want)
	}
}

func matchGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs:\n--- got\n%s--- want\n%s", path, got, want)
	}
}

// unlabeledLines returns the sample lines of a Prometheus body that
// carry no labels — what the flat text format must consist of.
func unlabeledLines(prom string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(prom, "\n") {
		if line != "" && !strings.HasPrefix(line, "#") && !strings.Contains(line, "{") {
			b.WriteString(line)
		}
	}
	return b.String()
}
