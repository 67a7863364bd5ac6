package svc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sigkern/internal/cache"
	"sigkern/internal/core"
	"sigkern/internal/faults"
	"sigkern/internal/machines"
	"sigkern/internal/obs"
)

// TestQuantileEdgeCases locks down the nearest-rank quantile on the
// degenerate windows where an off-by-one is easiest: empty, one sample,
// two samples, and exact-boundary q values.
func TestQuantileEdgeCases(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	cases := []struct {
		name   string
		sorted []time.Duration
		q      float64
		want   time.Duration
	}{
		{"empty", nil, 0.5, 0},
		{"n=1 q=0", []time.Duration{ms(7)}, 0, ms(7)},
		{"n=1 q=0.5", []time.Duration{ms(7)}, 0.5, ms(7)},
		{"n=1 q=1", []time.Duration{ms(7)}, 1, ms(7)},
		{"n=2 q=0", []time.Duration{ms(1), ms(9)}, 0, ms(1)},
		{"n=2 q=0.49", []time.Duration{ms(1), ms(9)}, 0.49, ms(1)},
		{"n=2 q=0.5", []time.Duration{ms(1), ms(9)}, 0.5, ms(9)}, // rounds up
		{"n=2 q=1", []time.Duration{ms(1), ms(9)}, 1, ms(9)},
		{"n=3 q=0.5", []time.Duration{ms(1), ms(5), ms(9)}, 0.5, ms(5)},
		{"n=4 q=1 clamps", []time.Duration{ms(1), ms(2), ms(3), ms(4)}, 1, ms(4)},
		{"q>1 clamps", []time.Duration{ms(1), ms(2)}, 2, ms(2)},
		{"q<0 clamps", []time.Duration{ms(1), ms(2)}, -1, ms(1)},
	}
	for _, tc := range cases {
		if got := quantile(tc.sorted, tc.q); got != tc.want {
			t.Errorf("%s: quantile(%v, %v) = %v, want %v", tc.name, tc.sorted, tc.q, got, tc.want)
		}
	}
}

// TestExecWindowExcludesCacheHits is the Retry-After regression test:
// a flood of µs-scale cache-hit completions must not collapse the
// executed-job p50 that prices the drain estimate, even though it does
// (correctly) dominate the all-jobs window.
func TestExecWindowExcludesCacheHits(t *testing.T) {
	m := NewMetrics()
	// 10 real executions at 2s each...
	for i := 0; i < 10; i++ {
		m.jobFinished(obs.Labels{}, true, true, false, false, 2*time.Second)
	}
	// ...drowned by 500 cache hits finishing in 5µs.
	for i := 0; i < 500; i++ {
		m.jobFinished(obs.Labels{}, false, true, false, false, 5*time.Microsecond)
	}
	snap := m.Snapshot()
	if snap.P50Seconds > 0.001 {
		t.Fatalf("all-jobs p50 = %v, expected µs-scale (cache hits dominate)", snap.P50Seconds)
	}
	if snap.ExecP50Seconds < 1.9 || snap.ExecP50Seconds > 2.1 {
		t.Fatalf("exec p50 = %v, want ~2s (cache hits must not collapse it)", snap.ExecP50Seconds)
	}
	if snap.ExecSamples != 10 || snap.Samples != 510 {
		t.Fatalf("samples: exec=%d all=%d", snap.ExecSamples, snap.Samples)
	}
	m.invalidateExecQuantiles()
	if p50 := m.ExecP50(); p50 < 1900*time.Millisecond || p50 > 2100*time.Millisecond {
		t.Fatalf("ExecP50() = %v, want ~2s", p50)
	}
}

// TestRetryAfterSurvivesCacheHitFlood drives the estimate end to end
// through Service.retryAfter: with slow executions on record, the
// backoff a shed client is told must reflect execution latency, not the
// cache-hit noise.
func TestRetryAfterSurvivesCacheHitFlood(t *testing.T) {
	s := NewService(Options{Pool: PoolOptions{Workers: 1, JobTimeout: time.Minute}})
	defer s.Close()
	m := s.Metrics()
	for i := 0; i < 8; i++ {
		m.jobFinished(obs.Labels{}, true, true, false, false, 3*time.Second)
	}
	for i := 0; i < 400; i++ {
		m.jobFinished(obs.Labels{}, false, true, false, false, 2*time.Microsecond)
	}
	m.invalidateExecQuantiles()
	// With an empty queue the floor is 1s either way; what must hold is
	// the p50 behind the estimate.
	if ra := s.retryAfter(PriorityInteractive); ra < time.Second {
		t.Fatalf("retryAfter = %v, floor is 1s", ra)
	}
	if p50 := m.ExecP50(); p50 < 2900*time.Millisecond {
		t.Fatalf("drain-estimate p50 = %v, collapsed by cache hits", p50)
	}
}

// TestExecP50Cached proves the shed path serves a cached value inside
// the TTL (no per-request window sort) and picks up new samples after
// an explicit invalidation.
func TestExecP50Cached(t *testing.T) {
	m := NewMetrics()
	m.jobFinished(obs.Labels{}, true, true, false, false, time.Second)
	first := m.ExecP50()
	if first != time.Second {
		t.Fatalf("first ExecP50 = %v", first)
	}
	// New, much slower samples land; within the TTL the cached value
	// still answers.
	for i := 0; i < 50; i++ {
		m.jobFinished(obs.Labels{}, true, true, false, false, 30*time.Second)
	}
	if got := m.ExecP50(); got != first {
		t.Fatalf("ExecP50 inside TTL = %v, want cached %v", got, first)
	}
	m.invalidateExecQuantiles()
	if got := m.ExecP50(); got != 30*time.Second {
		t.Fatalf("ExecP50 after invalidation = %v, want 30s", got)
	}
}

// TestMetricsConcurrentSnapshot hammers every hot-path recorder while
// Snapshot, WriteText, WritePrometheus, and ExecP50 run concurrently —
// the -race acceptance check for the atomic counter conversion.
func TestMetricsConcurrentSnapshot(t *testing.T) {
	m := NewMetrics()
	cell := obs.Labels{Machine: "VIRAM", Kernel: "corner-turn"}
	const writers, perWriter = 8, 300
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				m.queued.Inc()
				m.running.Add(1)
				m.cacheMisses.With(cell).Inc()
				m.jobFinished(cell, true, true, false, false, time.Duration(i)*time.Microsecond)
				m.cacheHits.With(cell).Inc()
				m.coalesced.With(cell).Inc()
				m.retries.With(cell).Add(1)
				m.cyclesServed.Add(10)
				m.loadShed(PriorityInteractive)
			}
		}()
	}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for i := 0; i < 100; i++ {
			_ = m.Snapshot()
			if err := m.Registry().WriteText(io.Discard); err != nil {
				t.Error(err)
				return
			}
			if err := m.Registry().WritePrometheus(io.Discard); err != nil {
				t.Error(err)
				return
			}
			_ = m.ExecP50()
			m.invalidateExecQuantiles()
		}
	}()
	wg.Wait()
	<-readerDone

	snap := m.Snapshot()
	want := uint64(writers * perWriter)
	if snap.Done != want || snap.Queued != want || snap.CacheHits != want ||
		snap.Coalesced != want || snap.Retries != want || snap.Shed != want {
		t.Fatalf("lost updates: %+v (want %d everywhere)", snap, want)
	}
	if snap.Running != 0 {
		t.Fatalf("running gauge = %d after all jobs finished", snap.Running)
	}
}

// TestMetricsWritePrometheus checks the full exposition: unlabeled
// snapshot totals with HELP/TYPE headers plus the per-cell labeled
// series and latency histogram.
func TestMetricsWritePrometheus(t *testing.T) {
	m := NewMetrics()
	viramCT := obs.Labels{Machine: "VIRAM", Kernel: "corner-turn"}
	imagineCS := obs.Labels{Machine: "Imagine", Kernel: "cslc"}
	m.jobFinished(viramCT, true, true, false, false, 120*time.Millisecond)
	m.jobFinished(viramCT, true, true, false, false, 80*time.Millisecond)
	m.jobFinished(imagineCS, true, false, false, false, 10*time.Millisecond)
	m.cacheHits.With(viramCT).Inc()

	var buf bytes.Buffer
	if err := m.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP simserved_jobs_done_total Jobs finished successfully.\n# TYPE simserved_jobs_done_total counter\nsimserved_jobs_done_total 2",
		"simserved_jobs_failed_total 1",
		"# TYPE simserved_cell_jobs_done_total counter",
		`simserved_cell_jobs_done_total{machine="VIRAM",kernel="corner-turn"} 2`,
		`simserved_cell_jobs_failed_total{machine="Imagine",kernel="cslc"} 1`,
		`simserved_cell_cache_hits_total{machine="VIRAM",kernel="corner-turn"} 1`,
		"# TYPE simserved_cell_exec_latency_seconds histogram",
		`simserved_cell_exec_latency_seconds_bucket{machine="VIRAM",kernel="corner-turn",le="0.1"} 1`,
		`simserved_cell_exec_latency_seconds_bucket{machine="VIRAM",kernel="corner-turn",le="+Inf"} 2`,
		`simserved_cell_exec_latency_seconds_count{machine="VIRAM",kernel="corner-turn"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", out)
	}
}

// TestHTTPMetricsFormats exercises the format switch on GET /metrics:
// flat text (default), Prometheus exposition, JSON, and a 400 on junk.
func TestHTTPMetricsFormats(t *testing.T) {
	s, srv := newTestServer(t)
	w := smallWorkload()
	spec := JobSpec{Machine: "VIRAM", Kernel: core.CornerTurn, Workload: &w}
	job, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), job.ID); err != nil {
		t.Fatal(err)
	}

	get := func(format string) (*http.Response, string) {
		t.Helper()
		url := srv.URL + "/metrics"
		if format != "" {
			url += "?format=" + format
		}
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(body)
	}

	if _, body := get(""); !strings.Contains(body, "simserved_jobs_done_total 1") {
		t.Fatalf("flat text:\n%s", body)
	}

	resp, body := get("prometheus")
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("prometheus Content-Type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE simserved_jobs_done_total counter",
		`simserved_cell_jobs_done_total{machine="VIRAM",kernel="corner-turn"} 1`,
		`simserved_cell_exec_latency_seconds_bucket{machine="VIRAM",kernel="corner-turn",le="+Inf"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("prometheus exposition missing %q:\n%s", want, body)
		}
	}
	// Scrape-parseability: every line is a comment or `sample value`.
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "# ") {
			continue
		}
		if len(strings.Split(line, " ")) != 2 {
			t.Errorf("unparseable sample line %q", line)
		}
	}

	resp, body = get("json")
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("json format: %v\n%s", err, body)
	}
	if snap.Done != 1 || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("json snapshot: %+v, ct=%q", snap, resp.Header.Get("Content-Type"))
	}

	if resp, _ := get("xml"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown format: status %d", resp.StatusCode)
	}
}

// processMemo returns the counters of the process-wide memo named name.
func processMemo(t *testing.T, name string) cache.MemoStats {
	t.Helper()
	for _, s := range cache.ProcessMemoStats() {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("no process-wide memo %q", name)
	return cache.MemoStats{}
}

// memoSeries reads one memo's series of a process-memo family from a
// Prometheus body.
func memoSeries(t *testing.T, body, family, memo string) float64 {
	t.Helper()
	prefix := family + `{memo="` + memo + `"} `
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, prefix); ok {
			var f float64
			if _, err := fmt.Sscan(v, &f); err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("exposition has no %s series for %s:\n%s", family, memo, body)
	return 0
}

// TestReferenceMemoMetrics runs a corner turn and a CSLC job on PPC and
// VIRAM, which prove different formulations of each (16x16 blocks and
// column order; radix 2 and radix 4), and reads the golden-reference
// memo series from the Prometheus exposition: per kernel, the second
// machine's check is a hit and the memo retains the references.
func TestReferenceMemoMetrics(t *testing.T) {
	s, srv := newTestServer(t)
	w := smallWorkload()
	w.CornerTurn.Rows, w.CornerTurn.Cols = 72, 40 // shapes no other test verifies
	w.CSLC.Samples = 320
	for _, k := range []core.KernelID{core.CornerTurn, core.CSLC} {
		for _, m := range []string{"PPC", "VIRAM"} {
			job, err := s.Submit(JobSpec{Machine: m, Kernel: k, Workload: &w})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Wait(context.Background(), job.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	resp, err := http.Get(srv.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, memo := range []string{"cornerturn_reference", "cslc_reference"} {
		if v := memoSeries(t, string(body), "simserved_process_memo_hits_total", memo); v < 1 {
			t.Errorf("%s: %v memo hits after two machines checked one spec", memo, v)
		}
		if v := memoSeries(t, string(body), "simserved_process_memo_misses_total", memo); v < 1 {
			t.Errorf("%s: %v memo misses after a fresh spec", memo, v)
		}
		if v := memoSeries(t, string(body), "simserved_process_memo_bytes", memo); v <= 0 {
			t.Errorf("%s: %v bytes retained", memo, v)
		}
	}
}

// TestProcessMemosReachPurgeAndMetrics registers a throwaway memo and
// checks that /metrics reports it and the one purge call empties it. It
// unregisters the memo, so no other test's exposition shows it.
func TestProcessMemosReachPurgeAndMetrics(t *testing.T) {
	const name = "svc_test_throwaway"
	m := cache.NewSizedMemo(name, 1<<10, func(int) int { return 8 })
	t.Cleanup(m.Unregister)
	m.Put("k", 1)
	m.Get("k")
	m.Get("absent")
	s := NewService(Options{Pool: PoolOptions{Workers: 1}})
	defer s.Close()
	scrape := func() string {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=prometheus", nil))
		return rec.Body.String()
	}
	read := func(body string) [3]float64 {
		return [3]float64{
			memoSeries(t, body, "simserved_process_memo_hits_total", name),
			memoSeries(t, body, "simserved_process_memo_misses_total", name),
			memoSeries(t, body, "simserved_process_memo_bytes", name),
		}
	}
	if got, want := read(scrape()), [3]float64{1, 1, 9}; got != want {
		t.Fatalf("before the purge: hits, misses, bytes %v, want %v", got, want)
	}
	cache.PurgeProcessMemos()
	if n := m.Len(); n != 0 {
		t.Fatalf("%d entries survived PurgeProcessMemos", n)
	}
	if got, want := read(scrape()), [3]float64{1, 1, 0}; got != want {
		t.Fatalf("after the purge: hits, misses, bytes %v, want %v", got, want)
	}
}

// TestPaperGridProvesEachFormulationOnce runs the paper grid through
// RunStudy after one purge. Its 15 cells declare 7 distinct (spec,
// formulation) pairs: four corner-turn transposers (16x16 blocks on
// both G4 rows, column order, 8-row strips, 64x64 blocks), two CSLC
// radices and one beam steering. So the verdict memo reads 7 misses and
// 8 hits. A private fault registry keeps retries from adding proofs.
func TestPaperGridProvesEachFormulationOnce(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 2, JobTimeout: 5 * time.Minute, Faults: faults.New(1)})
	defer p.Close()
	cache.PurgeProcessMemos()
	before := processMemo(t, "core_verdict")
	if _, err := RunStudy(context.Background(), p, nil, machines.Names(), core.PaperWorkload(), PriorityInteractive); err != nil {
		t.Fatal(err)
	}
	after := processMemo(t, "core_verdict")
	if misses, hits := after.Misses-before.Misses, after.Hits-before.Hits; misses != 7 || hits != 8 {
		t.Fatalf("paper grid: %d verdict misses, %d hits; want 7 and 8", misses, hits)
	}
}

// TestHTTPRequestIDEchoed checks the middleware end to end on a real
// route: a client-supplied X-Request-Id comes back verbatim, and an
// absent one is generated.
func TestHTTPRequestIDEchoed(t *testing.T) {
	_, srv := newTestServer(t)
	req, _ := http.NewRequest("GET", srv.URL+"/healthz", nil)
	req.Header.Set(obs.RequestIDHeader, "trace-me-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.RequestIDHeader); got != "trace-me-42" {
		t.Fatalf("echoed ID = %q", got)
	}
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.RequestIDHeader); got == "" {
		t.Fatal("no generated request ID")
	}
}

// eventNames flattens a trace for assertions.
func eventNames(events []obs.Event) []string {
	names := make([]string, len(events))
	for i, e := range events {
		names[i] = e.Name
	}
	return names
}

func wantEvents(t *testing.T, got []obs.Event, want ...string) {
	t.Helper()
	names := eventNames(got)
	if len(names) != len(want) {
		t.Fatalf("trace = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("trace = %v, want %v", names, want)
		}
	}
}

// TestHTTPJobTrace covers the live-trace endpoint: an executed job
// shows the full accepted→queued→started→done span list in order, a
// cache-hit job shows done without started, and unknown IDs 404.
func TestHTTPJobTrace(t *testing.T) {
	s, srv := newTestServer(t)
	w := smallWorkload()
	spec := JobSpec{Machine: "AltiVec", Kernel: core.BeamSteering, Workload: &w}
	job, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), job.ID); err != nil {
		t.Fatal(err)
	}

	var tr TraceResponse
	resp := getJSON(t, srv.URL+"/v1/jobs/"+job.ID+"/trace", &tr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if tr.ID != job.ID || tr.State != Done {
		t.Fatalf("trace response: %+v", tr)
	}
	wantEvents(t, tr.Events, obs.EventAccepted, obs.EventQueued, obs.EventStarted, obs.EventDone)
	for i := 1; i < len(tr.Events); i++ {
		if tr.Events[i].Time.Before(tr.Events[i-1].Time) {
			t.Fatalf("events out of order: %+v", tr.Events)
		}
	}

	// A second submission of the same spec is a memo hit: its trace ends
	// in done with the cache-hit note and never shows started.
	hit, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), hit.ID); err != nil {
		t.Fatal(err)
	}
	getJSON(t, srv.URL+"/v1/jobs/"+hit.ID+"/trace", &tr)
	wantEvents(t, tr.Events, obs.EventAccepted, obs.EventQueued, obs.EventDone)
	if last := tr.Events[len(tr.Events)-1]; last.Note != "cache hit" {
		t.Fatalf("cache-hit note = %q", last.Note)
	}

	resp = getJSON(t, srv.URL+"/v1/jobs/nope/trace", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job trace: status %d", resp.StatusCode)
	}
}

// TestTraceSurvivesCrashReplay reopens a crashed durable service and
// asserts a terminal job's trace is reconstructed from the raw journal
// log: the replayed events mirror the journaled lifecycle transitions.
func TestTraceSurvivesCrashReplay(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, dir, durableOpts())
	w := smallWorkload()
	job, err := s.Submit(JobSpec{Machine: "PPC", Kernel: core.CornerTurn, Workload: &w})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), job.ID); err != nil {
		t.Fatal(err)
	}
	crash(s)

	s2 := openDurable(t, dir, durableOpts())
	defer s2.Close()
	events, state, ok := s2.JobTrace(job.ID)
	if !ok || state != Done {
		t.Fatalf("replayed trace: ok=%v state=%v", ok, state)
	}
	wantEvents(t, events, obs.EventAccepted, obs.EventQueued, obs.EventStarted, obs.EventDone)

	// And over HTTP, same as a live job.
	srv := httptest.NewServer(s2.Handler())
	defer srv.Close()
	var tr TraceResponse
	resp := getJSON(t, srv.URL+"/v1/jobs/"+job.ID+"/trace", &tr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	wantEvents(t, tr.Events, obs.EventAccepted, obs.EventQueued, obs.EventStarted, obs.EventDone)
}

// TestTraceSurvivesSnapshotReplay drains a durable service gracefully
// (snapshot + compact) and reopens it: traces come back through the
// snapshot path rather than raw-log replay. Both services inject no
// faults, whatever the environment arms, so the job never retries and
// its trace is exactly the four lifecycle events.
func TestTraceSurvivesSnapshotReplay(t *testing.T) {
	dir := t.TempDir()
	opts := durableOpts()
	opts.Pool.Faults = faults.New(1)
	s := openDurable(t, dir, opts)
	w := smallWorkload()
	job, err := s.Submit(JobSpec{Machine: "Imagine", Kernel: core.BeamSteering, Workload: &w})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), job.ID); err != nil {
		t.Fatal(err)
	}
	s.Close() // graceful: snapshots and compacts

	opts.Pool.Faults = faults.New(1)
	s2 := openDurable(t, dir, opts)
	defer s2.Close()
	events, state, ok := s2.JobTrace(job.ID)
	if !ok || state != Done {
		t.Fatalf("snapshot-replayed trace: ok=%v state=%v", ok, state)
	}
	wantEvents(t, events, obs.EventAccepted, obs.EventQueued, obs.EventStarted, obs.EventDone)
}
