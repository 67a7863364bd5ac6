package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sigkern/internal/core"
	"sigkern/internal/journal"
	"sigkern/internal/kernels/beamsteer"
	"sigkern/internal/kernels/cornerturn"
	"sigkern/internal/kernels/cslc"
	"sigkern/internal/kernels/fft"
	"sigkern/internal/svc"
)

func smallWorkload() core.Workload {
	return core.Workload{
		CornerTurn: cornerturn.Spec{Rows: 64, Cols: 64, BlockSize: 16},
		CSLC:       cslc.Spec{MainChannels: 1, AuxChannels: 1, Samples: 256, SubBands: 3, FFTSize: 64, Radix: fft.Radix4},
		Beam:       beamsteer.Spec{Elements: 64, Directions: 2, Dwells: 2, ShiftBits: 2, Rounding: 2},
	}
}

// testCluster is three real in-process shards behind one gateway.
type testCluster struct {
	gw       *Gateway
	gwSrv    *httptest.Server
	services map[string]*svc.Service
	servers  map[string]*httptest.Server
}

func newTestCluster(t *testing.T, durableDirs map[string]string) *testCluster {
	t.Helper()
	tc := &testCluster{
		services: make(map[string]*svc.Service),
		servers:  make(map[string]*httptest.Server),
	}
	var shards []Shard
	for _, name := range []string{"s1", "s2", "s3"} {
		opts := svc.Options{ShardID: name}
		var s *svc.Service
		if dir, ok := durableDirs[name]; ok {
			var err error
			s, err = svc.OpenDurable(opts, journal.Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
		} else {
			s = svc.NewService(opts)
		}
		srv := httptest.NewServer(s.Handler())
		tc.services[name] = s
		tc.servers[name] = srv
		shards = append(shards, Shard{Name: name, URL: srv.URL})
	}
	gw, err := NewGateway(Options{
		Shards:        shards,
		ProbeInterval: 50 * time.Millisecond,
		HedgeDelay:    20 * time.Millisecond,
		JournalDirs:   durableDirs,
	})
	if err != nil {
		t.Fatal(err)
	}
	gw.Start()
	tc.gw = gw
	tc.gwSrv = httptest.NewServer(gw.Handler())
	t.Cleanup(func() {
		tc.gwSrv.Close()
		gw.Close()
		for name, srv := range tc.servers {
			srv.Close()
			tc.services[name].Close()
		}
	})
	return tc
}

func (tc *testCluster) submit(t *testing.T, spec svc.JobSpec, header map[string]string) (*http.Response, svc.Job) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, tc.gwSrv.URL+"/v1/jobs?wait=1", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var job svc.Job
	data, _ := io.ReadAll(resp.Body)
	_ = json.Unmarshal(data, &job)
	return resp, job
}

// TestGatewayRoutesByHashAndServesClusterWideDedup: the same spec
// always lands on the same shard, so the second submission of it is a
// cluster-wide cache hit even with three independent memo tables.
func TestGatewayRoutesByHashAndDedups(t *testing.T) {
	tc := newTestCluster(t, nil)
	w := smallWorkload()
	spec := svc.JobSpec{Machine: "PPC", Kernel: core.CornerTurn, Workload: &w}

	resp1, job1 := tc.submit(t, spec, nil)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("submit 1: %d", resp1.StatusCode)
	}
	if job1.State != svc.Done || job1.Result == nil {
		t.Fatalf("job 1 not done: %+v", job1)
	}
	shard1 := resp1.Header.Get("X-Simgate-Shard")

	resp2, job2 := tc.submit(t, spec, map[string]string{"Idempotency-Key": "different-key"})
	shard2 := resp2.Header.Get("X-Simgate-Shard")
	if shard1 != shard2 {
		t.Fatalf("same spec routed to %s then %s", shard1, shard2)
	}
	if !job2.FromCache {
		t.Fatalf("second submission not a cache hit: %+v", job2)
	}
	if job2.Result.Cycles != job1.Result.Cycles {
		t.Fatalf("cycles drifted: %d vs %d", job1.Result.Cycles, job2.Result.Cycles)
	}
	// The issuing shard's name prefixes the job ID, so a later GET can
	// route straight back.
	if !strings.HasPrefix(job1.ID, shard1+"-") {
		t.Fatalf("job ID %q does not carry shard prefix %q", job1.ID, shard1)
	}

	// GET through the gateway finds the job by its prefixed ID.
	getResp, err := http.Get(tc.gwSrv.URL + "/v1/jobs/" + job1.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer getResp.Body.Close()
	if getResp.StatusCode != http.StatusOK {
		t.Fatalf("GET via gateway: %d", getResp.StatusCode)
	}
}

// TestGatewayReroutesOnShardDeath: killing the owner mid-cluster moves
// its keys to a ring successor with the Idempotency-Key forwarded —
// the job is answered exactly once, by a different shard, and the
// reroute counter moves.
func TestGatewayReroutesOnShardDeath(t *testing.T) {
	tc := newTestCluster(t, nil)
	w := smallWorkload()
	spec := svc.JobSpec{Machine: "AltiVec", Kernel: core.BeamSteering, Workload: &w}

	resp1, job1 := tc.submit(t, spec, nil)
	owner := resp1.Header.Get("X-Simgate-Shard")
	if owner == "" || job1.State != svc.Done {
		t.Fatalf("first submit: shard=%q job=%+v", owner, job1)
	}

	// Kill the owner. The gateway's next submit of the same spec must
	// land on a successor, not error.
	tc.servers[owner].Close()
	before := tc.gw.Metrics().Snapshot().Reroutes
	resp2, job2 := tc.submit(t, spec, nil)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("submit after owner death: %d", resp2.StatusCode)
	}
	successor := resp2.Header.Get("X-Simgate-Shard")
	if successor == owner || successor == "" {
		t.Fatalf("expected a successor shard, got %q", successor)
	}
	if job2.Result == nil || job2.Result.Cycles != job1.Result.Cycles {
		t.Fatalf("successor cycles drifted: %+v vs %+v", job2.Result, job1.Result)
	}
	if tc.gw.Metrics().Snapshot().Reroutes <= before {
		t.Fatal("reroute not counted")
	}

	// Resubmitting to the successor with the same (defaulted) key is an
	// idempotent replay: answered exactly once.
	resp3, job3 := tc.submit(t, spec, nil)
	defer resp3.Body.Close()
	if resp3.Header.Get("Idempotency-Replayed") != "true" {
		t.Fatalf("resubmit after reroute not replayed (headers %v)", resp3.Header)
	}
	if job3.ID != job2.ID {
		t.Fatalf("resubmit made new work: %s vs %s", job3.ID, job2.ID)
	}
}

// TestGatewayForwardsLargestRetryAfter is the satellite regression:
// when every shard sheds with 503 + Retry-After, the gateway must
// answer with the LARGEST value it saw — never a synthesized zero, and
// never just the last shard's smaller hint.
func TestGatewayForwardsLargestRetryAfter(t *testing.T) {
	retryAfters := []string{"7", "2", "4"}
	var shards []Shard
	for i, ra := range retryAfters {
		ra := ra
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/readyz" {
				w.WriteHeader(http.StatusOK)
				return
			}
			w.Header().Set("Retry-After", ra)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = w.Write([]byte(`{"error":"shedding"}`))
		}))
		defer srv.Close()
		shards = append(shards, Shard{Name: []string{"s1", "s2", "s3"}[i], URL: srv.URL})
	}
	gw, err := NewGateway(Options{Shards: shards, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	gw.Start()
	defer gw.Close()
	gwSrv := httptest.NewServer(gw.Handler())
	defer gwSrv.Close()

	w := smallWorkload()
	body, _ := json.Marshal(svc.JobSpec{Machine: "PPC", Kernel: core.CornerTurn, Workload: &w})
	resp, err := http.Post(gwSrv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	got := resp.Header.Get("Retry-After")
	if got != "7" {
		t.Fatalf("Retry-After = %q, want the largest seen (7)", got)
	}
}

// TestGatewayNeverSynthesizesZeroRetryAfter: shards shedding without a
// Retry-After must not produce a zero-valued header at the gateway —
// either a positive value or no header at all.
func TestGatewayNeverSynthesizesZeroRetryAfter(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer srv.Close()
	gw, err := NewGateway(Options{Shards: []Shard{{Name: "s1", URL: srv.URL}}, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	gw.Start()
	defer gw.Close()
	gwSrv := httptest.NewServer(gw.Handler())
	defer gwSrv.Close()

	w := smallWorkload()
	body, _ := json.Marshal(svc.JobSpec{Machine: "PPC", Kernel: core.CornerTurn, Workload: &w})
	resp, err := http.Post(gwSrv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ra, present := resp.Header["Retry-After"]; present {
		if len(ra) > 0 && (ra[0] == "0" || ra[0] == "") {
			t.Fatalf("gateway synthesized Retry-After %q", ra[0])
		}
	}
}

// TestGateway429PassesThroughWithShardRetryAfter: queue saturation is
// backpressure, not failure — the 429 and its Retry-After pass through
// unrerouted.
func TestGateway429PassesThrough(t *testing.T) {
	hits := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		hits++
		w.Header().Set("Retry-After", "5")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer srv.Close()
	other := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer other.Close()

	// Single-shard ring: the 429 shard owns everything.
	gw, err := NewGateway(Options{Shards: []Shard{{Name: "s1", URL: srv.URL}}, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	gw.Start()
	defer gw.Close()
	gwSrv := httptest.NewServer(gw.Handler())
	defer gwSrv.Close()

	w := smallWorkload()
	body, _ := json.Marshal(svc.JobSpec{Machine: "PPC", Kernel: core.CornerTurn, Workload: &w})
	resp, err := http.Post(gwSrv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "5" {
		t.Fatalf("429 passthrough: status %d Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if hits != 1 {
		t.Fatalf("overloaded shard hit %d times, want 1 (no reroute on 429)", hits)
	}
}

// TestGatewayHedgesSlowReads: a shard that sits on a GET past the
// hedge delay loses to a hedge fired at the next candidate.
func TestGatewayHedgesSlowReads(t *testing.T) {
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		select {
		case <-release:
		case <-r.Context().Done():
			return
		}
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte(`{"id":"from-slow"}`))
	}))
	defer slow.Close()
	defer close(release)
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte(`{"id":"from-fast","state":"done"}`))
	}))
	defer fast.Close()

	gw, err := NewGateway(Options{
		Shards:        []Shard{{Name: "s1", URL: slow.URL}, {Name: "s2", URL: fast.URL}},
		ProbeInterval: time.Hour,
		HedgeDelay:    15 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	gw.Start()
	defer gw.Close()
	gwSrv := httptest.NewServer(gw.Handler())
	defer gwSrv.Close()

	// s1- prefix pins the slow shard as primary.
	resp, err := http.Get(gwSrv.URL + "/v1/jobs/s1-j000001-deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !bytes.Contains(data, []byte("from-fast")) {
		t.Fatalf("hedge did not win: %d %s", resp.StatusCode, data)
	}
	if gw.Metrics().Snapshot().Hedges == 0 {
		t.Fatal("hedge not counted")
	}
}

// TestGatewayReadsWalkMisses: a job rebalanced away from the shard its
// ID names is still found — 404 on the primary walks to the successor
// holding it.
func TestGatewayReadsWalkMisses(t *testing.T) {
	tc := newTestCluster(t, nil)
	w := smallWorkload()
	spec, err := svc.JobSpec{Machine: "VIRAM", Kernel: core.CornerTurn, Workload: &w}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	hash, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	// Plant the job on a shard that is NOT the one its ID prefix names.
	res := core.Result{Machine: "VIRAM", Kernel: core.CornerTurn, Cycles: 42}
	id := "s1-j000007-" + hash[:8]
	holder := "s2"
	if tc.gw.ring.Owner(hash) == "s1" {
		holder = "s3"
	}
	if _, err := tc.services[holder].IngestJobs([]svc.Job{{ID: id, Spec: spec, Hash: hash, State: svc.Done, Result: &res}}, nil); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(tc.gwSrv.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("miss-walk failed: %d", resp.StatusCode)
	}
	var job svc.Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	if job.ID != id || job.Result == nil || job.Result.Cycles != 42 {
		t.Fatalf("wrong job from miss-walk: %+v", job)
	}
}

// TestGatewayRebalanceReplaysWAL: a durable shard dies; the gateway
// exports its journal and replays it into ring successors. Every
// terminal job is then served through the gateway — same ID, same
// cycles — and the rebalance metrics move.
func TestGatewayRebalanceReplaysWAL(t *testing.T) {
	dirs := map[string]string{"s1": t.TempDir(), "s2": t.TempDir(), "s3": t.TempDir()}
	tc := newTestCluster(t, dirs)
	w := smallWorkload()
	specs := []svc.JobSpec{
		{Machine: "PPC", Kernel: core.CornerTurn, Workload: &w},
		{Machine: "AltiVec", Kernel: core.BeamSteering, Workload: &w},
		{Machine: "VIRAM", Kernel: core.CornerTurn, Workload: &w},
		{Machine: "Imagine", Kernel: core.CSLC, Workload: &w},
		{Machine: "Raw", Kernel: core.BeamSteering, Workload: &w},
	}
	type done struct {
		id     string
		shard  string
		cycles uint64
	}
	var jobs []done
	for _, spec := range specs {
		resp, job := tc.submit(t, spec, nil)
		if resp.StatusCode != http.StatusOK || job.Result == nil {
			t.Fatalf("submit: %d %+v", resp.StatusCode, job)
		}
		jobs = append(jobs, done{id: job.ID, shard: resp.Header.Get("X-Simgate-Shard"), cycles: job.Result.Cycles})
	}
	// Pick whichever shard got work; kill it ungracefully (no drain, no
	// checkpoint — its WAL is all that's left).
	victim := jobs[0].shard
	tc.servers[victim].CloseClientConnections()
	tc.servers[victim].Close()
	tc.services[victim].Pool().Close() // simulate death without Checkpoint
	tc.gw.Prober().Sweep()

	resp, err := http.Post(tc.gwSrv.URL+"/v1/rebalance?shard="+victim, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("rebalance: %d %s", resp.StatusCode, data)
	}
	var res RebalanceResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Shipped == 0 {
		t.Fatalf("rebalance shipped nothing: %+v", res)
	}
	if tc.gw.Metrics().Snapshot().RebalanceRecords == 0 {
		t.Fatal("rebalance records not counted")
	}

	// Every job the victim owned is served through the gateway again:
	// same ID, same cycles, now from a successor.
	for _, j := range jobs {
		getResp, err := http.Get(tc.gwSrv.URL + "/v1/jobs/" + j.id)
		if err != nil {
			t.Fatal(err)
		}
		var job svc.Job
		err = json.NewDecoder(getResp.Body).Decode(&job)
		getResp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if getResp.StatusCode != http.StatusOK || job.Result == nil {
			t.Fatalf("job %s lost after rebalance: %d %+v", j.id, getResp.StatusCode, job)
		}
		if job.Result.Cycles != j.cycles {
			t.Fatalf("job %s cycles drifted across rebalance: %d vs %d", j.id, job.Result.Cycles, j.cycles)
		}
	}
}

// TestGatewayRebalanceRefusedWhileAlive: rebalancing a shard that
// still answers probes is a 409 — its own restart replay owns that
// log — unless forced.
func TestGatewayRebalanceRefusedWhileAlive(t *testing.T) {
	dirs := map[string]string{"s1": t.TempDir(), "s2": t.TempDir(), "s3": t.TempDir()}
	tc := newTestCluster(t, dirs)
	resp, err := http.Post(tc.gwSrv.URL+"/v1/rebalance?shard=s1", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("rebalance of live shard: %d, want 409", resp.StatusCode)
	}
}

// TestGatewayPrometheusExposition: the gateway metric families the
// README documents are present in ?format=prometheus.
func TestGatewayPrometheusExposition(t *testing.T) {
	tc := newTestCluster(t, nil)
	resp, err := http.Get(tc.gwSrv.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, name := range []string{
		"simgate_reroutes_total",
		"simgate_hedges_total",
		"simgate_shard_healthy",
		"simgate_rebalance_records_total",
	} {
		if !strings.Contains(text, "# TYPE "+name+" ") {
			t.Fatalf("family %s missing from exposition:\n%s", name, text)
		}
	}
	if !strings.Contains(text, `simgate_shard_healthy{shard="s1"} 1`) {
		t.Fatalf("per-shard gauge missing:\n%s", text)
	}
}

// TestGatewayDrainingShardStopsReceivingNewWork: /readyz-based
// routing — a draining shard keeps serving reads but new submissions
// go to a ring successor.
func TestGatewayDrainingShardStopsReceivingNewWork(t *testing.T) {
	tc := newTestCluster(t, nil)
	w := smallWorkload()
	spec := svc.JobSpec{Machine: "PPC", Kernel: core.BeamSteering, Workload: &w}
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	hash, err := norm.Hash()
	if err != nil {
		t.Fatal(err)
	}
	owner := tc.gw.ring.Owner(hash)
	tc.services[owner].SetDraining(true)
	tc.gw.Prober().Sweep()

	resp, job := tc.submit(t, spec, nil)
	if resp.StatusCode != http.StatusOK || job.Result == nil {
		t.Fatalf("submit during drain: %d %+v", resp.StatusCode, job)
	}
	if got := resp.Header.Get("X-Simgate-Shard"); got == owner {
		t.Fatalf("new work routed to draining shard %s", got)
	}

	// The draining shard is alive, not dead: it still answers reads.
	if !tc.gw.Prober().Alive(owner) {
		t.Fatal("draining shard marked dead")
	}
}

// TestGatewayRejectsOverBoundSpecs: a CSLC spec or a hardware override
// above its absolute bound gets a 400 naming the field on every write
// endpoint, from the gateway's own normalization, before any shard is
// contacted.
func TestGatewayRejectsOverBoundSpecs(t *testing.T) {
	var contacted atomic.Int64
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/readyz" {
			contacted.Add(1)
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer shard.Close()
	gw, err := NewGateway(Options{Shards: []Shard{{Name: "s1", URL: shard.URL}}, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	gw.Start()
	defer gw.Close()
	srv := httptest.NewServer(gw.Handler())
	defer srv.Close()

	w := core.PaperWorkload()
	w.CSLC.Samples, w.CSLC.SubBands, w.CSLC.FFTSize = 8192, 1, 8192
	cslcSpec, err := json.Marshal(svc.JobSpec{Machine: "VIRAM", Kernel: core.CSLC, Workload: &w})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []struct{ spec, field string }{
		{string(cslcSpec), "FFTSize"},
		{`{"machine":"Raw","kernel":"beam-steering","config":{"raw":{"Mesh":{"Width":1000}}}}`, "Width"},
		{`{"machine":"AltiVec","kernel":"cslc","config":{"ppc":{"VecLatency":288230376151711744}}}`, "VecLatency"},
		{`{"machine":"PPC","kernel":"corner-turn","config":{"ppc":{"IssueWidth":1000}}}`, "IssueWidth"},
	} {
		for _, call := range []struct{ path, contentType, body string }{
			{"/v1/jobs?wait=1", "application/json", b.spec},
			{"/v1/batch", "application/x-ndjson", b.spec + "\n"},
			{"/v1/dse", "application/json", `{"base":` + b.spec + `}`},
		} {
			resp, err := http.Post(srv.URL+call.path, call.contentType, strings.NewReader(call.body))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), b.field) {
				t.Errorf("POST %s with %s over its bound: %d %s, want 400 naming it", call.path, b.field, resp.StatusCode, body)
			}
		}
	}
	if n := contacted.Load(); n != 0 {
		t.Fatalf("gateway sent %d over-bound requests to the shard", n)
	}
}

// TestGatewayForwardsReadsPastRefusingShard: GET /v1/tables/3 walks
// the shards ready first. A shard that died after the last probe
// refuses the connection; the read falls past it to a ready shard, and
// the dead shard, now marked down, is tried last — but still tried, so
// a failed probe sweep cannot black-hole reads.
func TestGatewayForwardsReadsPastRefusingShard(t *testing.T) {
	var served atomic.Int64
	ready := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/readyz" {
			served.Add(1)
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write([]byte(`{"table":3}`))
		}
	}))
	defer ready.Close()
	dying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	gw, err := NewGateway(Options{
		Shards:        []Shard{{Name: "s1", URL: dying.URL}, {Name: "s2", URL: ready.URL}},
		ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	gw.Start() // the one sweep finds both shards ready
	defer gw.Close()
	dying.Close()
	gwSrv := httptest.NewServer(gw.Handler())
	defer gwSrv.Close()

	read := func(step string, wantUpstreamErrors uint64) {
		t.Helper()
		resp, err := http.Get(gwSrv.URL + "/v1/tables/3?format=json")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Simgate-Shard") != "s2" || string(body) != `{"table":3}` {
			t.Fatalf("%s: %d from %q: %s, want the ready shard's table", step, resp.StatusCode, resp.Header.Get("X-Simgate-Shard"), body)
		}
		if got := gw.Metrics().Snapshot().UpstreamErrors; got != wantUpstreamErrors {
			t.Fatalf("%s: upstream_errors_total = %d, want %d", step, got, wantUpstreamErrors)
		}
	}
	read("past the refusing shard", 1)
	if gw.Prober().Alive("s1") {
		t.Fatal("a refused connection left s1 alive")
	}
	read("with s1 down", 1)
	gw.Prober().ObserveFailure("s2", errors.New("probe timed out"))
	read("with both marked down", 2)
	if n := served.Load(); n != 3 {
		t.Fatalf("ready shard served %d reads, want 3", n)
	}
}
