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
	"testing"
	"time"

	"sigkern/internal/core"
	"sigkern/internal/faults"
	"sigkern/internal/machines"
)

func newTestServer(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	s := NewService(Options{Pool: PoolOptions{Workers: 8, JobTimeout: 5 * time.Minute}})
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		srv.Close()
		s.Close()
	})
	return s, srv
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp
}

// TestHTTPTable3MatchesSerialStudy is the acceptance check: the service
// endpoint regenerates Table 3 with cycle counts identical to the
// serial study (the numbers `sigstudy -csv` writes and cmd/compare
// diffs).
func TestHTTPTable3MatchesSerialStudy(t *testing.T) {
	_, srv := newTestServer(t)

	var td TableData
	resp := getJSON(t, srv.URL+"/v1/tables/3", &td)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	// The cold table ran each of its 15 cells once, and every one
	// reached the per-cell metrics.
	mresp, err := http.Get(srv.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, name := range machines.Names() {
		for _, k := range core.Kernels() {
			want := fmt.Sprintf("simserved_cell_exec_latency_seconds_count{machine=%q,kernel=%q} 1\n", name, k)
			if !strings.Contains(string(prom), want) {
				t.Errorf("metrics lack %q", want)
			}
		}
	}

	sr, err := core.RunStudy(machines.All(), core.PaperWorkload())
	if err != nil {
		t.Fatal(err)
	}
	names := sr.MachineNames()
	if len(td.Rows) != len(names) {
		t.Fatalf("%d rows, want %d", len(td.Rows), len(names))
	}
	for i, name := range names {
		if td.Rows[i][0] != name {
			t.Fatalf("row %d is %q, want %q (paper order)", i, td.Rows[i][0], name)
		}
		for _, k := range core.Kernels() {
			want, _ := sr.Result(name, k)
			if got := td.Cycles[name][k]; got != want.Cycles {
				t.Errorf("%s/%s: service %d cycles, serial study %d", name, k, got, want.Cycles)
			}
		}
	}

	// The text rendering is the same table cmd/sigstudy prints.
	tresp, err := http.Get(srv.URL + "/v1/tables/3?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	text, _ := io.ReadAll(tresp.Body)
	if !strings.Contains(string(text), "Table 3. Experimental results") {
		t.Fatalf("text table:\n%s", text)
	}
}

// TestHTTPSubmitAllPairs posts one job per (machine, kernel) pair of
// the paper study — the acceptance criterion that the daemon serves
// POST /v1/jobs for all five machines and all three kernels.
func TestHTTPSubmitAllPairs(t *testing.T) {
	s, srv := newTestServer(t)

	// Warm the memo with the full grid so the 15 posted jobs come back
	// quickly (and exercise the cache path).
	if _, err := s.Table3(context.Background()); err != nil {
		t.Fatal(err)
	}

	for _, m := range machines.All() {
		for _, k := range core.Kernels() {
			body, _ := json.Marshal(JobSpec{Machine: m.Name(), Kernel: k})
			resp, err := http.Post(srv.URL+"/v1/jobs?wait=1", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var job Job
			if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s/%s: status %d (%s)", m.Name(), k, resp.StatusCode, job.Error)
			}
			if job.State != Done || job.Result == nil || job.Result.Cycles == 0 {
				t.Fatalf("%s/%s: job %+v", m.Name(), k, job)
			}
			if !job.FromCache {
				t.Errorf("%s/%s: expected memo hit after Table3 warm-up", m.Name(), k)
			}

			// The job is queryable by ID afterwards.
			var byID Job
			gresp := getJSON(t, srv.URL+"/v1/jobs/"+job.ID, &byID)
			if gresp.StatusCode != http.StatusOK || byID.ID != job.ID {
				t.Fatalf("GET by id: %d %+v", gresp.StatusCode, byID)
			}
		}
	}

	var list struct {
		Jobs []Job `json:"jobs"`
	}
	getJSON(t, srv.URL+"/v1/jobs", &list)
	if len(list.Jobs) != len(machines.All())*len(core.Kernels()) {
		t.Fatalf("%d jobs listed", len(list.Jobs))
	}
}

func TestHTTPErrorsAndProbes(t *testing.T) {
	_, srv := newTestServer(t)

	// Malformed JSON.
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed spec: status %d", resp.StatusCode)
	}

	// Unknown machine.
	resp, err = http.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"machine":"Cray-1","kernel":"cslc"}`))
	if err != nil {
		t.Fatal(err)
	}
	var apiErr map[string]string
	_ = json.NewDecoder(resp.Body).Decode(&apiErr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(apiErr["error"], "Cray-1") {
		t.Fatalf("unknown machine: %d %v", resp.StatusCode, apiErr)
	}

	// Unknown job ID.
	if resp := getJSON(t, srv.URL+"/v1/jobs/nope", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d", resp.StatusCode)
	}

	// Probes.
	var health map[string]any
	if resp := getJSON(t, srv.URL+"/healthz", &health); resp.StatusCode != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("healthz: %v", health)
	}
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mtext, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{"simserved_jobs_queued_total", "simserved_cache_hit_rate"} {
		if !strings.Contains(string(mtext), want) {
			t.Fatalf("metrics missing %q:\n%s", want, mtext)
		}
	}
}

// TestHTTPAsyncLifecycle submits without wait and polls the job to a
// terminal state, the way a remote client would.
func TestHTTPAsyncLifecycle(t *testing.T) {
	_, srv := newTestServer(t)
	body, _ := json.Marshal(JobSpec{Machine: "AltiVec", Kernel: core.BeamSteering})
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var job Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		var cur Job
		getJSON(t, srv.URL+"/v1/jobs/"+job.ID, &cur)
		if cur.State.Terminal() {
			if cur.State != Done {
				t.Fatalf("job failed: %s", cur.Error)
			}
			if cur.Latency() <= 0 {
				t.Fatalf("no latency recorded: %+v", cur)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", job.ID, cur.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHTTPSubmitStatusFollowsAdmission: POST /v1/jobs answers 200 only
// when admission itself answered the job. Cold submits to a machine
// that finishes at once (a leakyMachine, built per attempt) all get 202
// with a job still unfinished in the body, however soon their worker
// finishes them; resubmitting a finished spec, a memo hit, gets 200.
func TestHTTPSubmitStatusFollowsAdmission(t *testing.T) {
	s := NewService(Options{
		Pool:    PoolOptions{Workers: 2, JobTimeout: time.Minute, Faults: faults.New(1)},
		Factory: func(name string) (core.Machine, error) { return &leakyMachine{name: name}, nil },
	})
	srv := httptest.NewServer(s.Handler())
	defer func() {
		srv.Close()
		s.Close()
	}()
	post := func(spec JobSpec) (int, Job) {
		t.Helper()
		body, _ := json.Marshal(spec)
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var job Job
		if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, job
	}
	var first JobSpec
	var firstID string
	for i := 0; i < 300; i++ {
		w := smallWorkload()
		w.CornerTurn.Rows, w.CornerTurn.Cols = 16*(1+i%20), 16*(1+i/20)
		spec := JobSpec{Machine: "VIRAM", Kernel: core.CornerTurn, Workload: &w}
		code, job := post(spec)
		if code != http.StatusAccepted || job.State.Terminal() {
			t.Fatalf("cold submit %d: status %d with a %s job, want 202 and an unfinished job", i, code, job.State)
		}
		if i == 0 {
			first, firstID = spec, job.ID
		}
	}
	if _, err := s.Wait(context.Background(), firstID); err != nil {
		t.Fatal(err)
	}
	if code, hit := post(first); code != http.StatusOK || hit.State != Done || !hit.FromCache {
		t.Fatalf("memo hit: status %d, %s job, from_cache=%v; want 200 and a done cached job", code, hit.State, hit.FromCache)
	}
}

func BenchmarkServiceMemoHit(b *testing.B) {
	s := NewService(Options{Pool: PoolOptions{Workers: 4, JobTimeout: time.Minute}})
	defer s.Close()
	w := smallWorkload()
	spec := JobSpec{Machine: "AltiVec", Kernel: core.BeamSteering, Workload: &w}
	job, err := s.Submit(spec)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), job.ID); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := s.Submit(spec)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Wait(context.Background(), j.ID); err != nil {
			b.Fatal(err)
		}
	}
}
