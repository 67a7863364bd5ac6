package cluster

import (
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sigkern/internal/obs"
	"sigkern/internal/svc"
)

var update = flag.Bool("update", false, "rewrite the /metrics golden files")

// feedMetrics records a fixed sequence of gateway observations, each
// counter a different number of times.
func feedMetrics(m *Metrics) {
	for n, c := range []*obs.Counter{m.proxied, m.reroutes, m.hedges, m.hedgeWins, m.upstreamErrors,
		m.breakerRejected, m.budgetExhausted, m.configMismatch} {
		c.Add(uint64(n + 2))
	}
	m.rebalances.Add(2)
	m.rebalanceRecords.Add(23)
}

// TestGatewayMetricsFormatsMatchGolden scrapes the three /metrics
// formats of a gateway whose two shards refuse connections, so the
// probe verdicts are fixed. The Prometheus and JSON bodies must equal
// the golden files (go test -update rewrites them), and the flat text
// must be the unlabeled sample lines of the Prometheus body.
func TestGatewayMetricsFormatsMatchGolden(t *testing.T) {
	var shards []Shard
	for _, name := range []string{"s2", "s1"} {
		dead := httptest.NewServer(nil)
		dead.Close()
		shards = append(shards, Shard{Name: name, URL: dead.URL})
	}
	gw, err := NewGateway(Options{Shards: shards, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	gw.Start()
	defer gw.Close()
	feedMetrics(gw.Metrics())
	h := gw.Handler()
	scrape := func(format string) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format="+format, nil))
		return rec.Body.String()
	}
	prom := scrape("prometheus")
	matchGolden(t, "testdata/metrics.prom", prom)
	matchGolden(t, "testdata/metrics.json", scrape("json"))
	if text, want := scrape("text"), unlabeledLines(prom); text != want {
		t.Errorf("flat text is not the unlabeled Prometheus samples:\n--- got\n%s--- want\n%s", text, want)
	}
}

// TestMetricFamiliesDocumented fails when a family the simserved or
// the simgate registry registers has no row in a README.md table.
func TestMetricFamiliesDocumented(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	gw, err := NewGateway(Options{Shards: []Shard{{Name: "s1", URL: "http://127.0.0.1:1"}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range append(svc.NewMetrics().Registry().Names(), gw.metrics.reg.Names()...) {
		if !strings.Contains(string(readme), "| `"+name+"` |") {
			t.Errorf("README.md does not document %s", name)
		}
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
