package svc

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"sigkern/internal/core"
	"sigkern/internal/journal"
)

// TestHTTPListPagination walks GET /v1/jobs with ?limit=/?after=
// cursors: pages preserve submission order, concatenate to the full
// set, and the last page omits next_after.
func TestHTTPListPagination(t *testing.T) {
	s, srv := newTestServer(t)
	w := smallWorkload()
	var ids []string
	for _, spec := range []JobSpec{
		{Machine: "PPC", Kernel: core.CornerTurn, Workload: &w},
		{Machine: "AltiVec", Kernel: core.CornerTurn, Workload: &w},
		{Machine: "VIRAM", Kernel: core.CornerTurn, Workload: &w},
		{Machine: "PPC", Kernel: core.BeamSteering, Workload: &w},
		{Machine: "AltiVec", Kernel: core.BeamSteering, Workload: &w},
	} {
		job, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, job.ID)
	}

	var walked []string
	after := ""
	for page := 0; ; page++ {
		if page > 3 {
			t.Fatal("pagination does not terminate")
		}
		url := srv.URL + "/v1/jobs?limit=2"
		if after != "" {
			url += "&after=" + after
		}
		var pl JobListPage
		if resp := getJSON(t, url, &pl); resp.StatusCode != http.StatusOK {
			t.Fatalf("page %d: %d", page, resp.StatusCode)
		}
		if pl.Total != len(ids) || pl.Count != len(pl.Jobs) || pl.Count > 2 {
			t.Fatalf("page %d shape: %+v", page, pl)
		}
		for _, j := range pl.Jobs {
			walked = append(walked, j.ID)
		}
		if pl.NextAfter == "" {
			break
		}
		after = pl.NextAfter
	}
	if len(walked) != len(ids) {
		t.Fatalf("walked %d jobs, want %d", len(walked), len(ids))
	}
	for i, id := range ids {
		if walked[i] != id {
			t.Fatalf("position %d: got %s, want %s (submission order)", i, walked[i], id)
		}
	}

	for _, q := range []string{"limit=0", "limit=-3", "limit=bogus", "after=never-issued"} {
		resp, err := http.Get(srv.URL + "/v1/jobs?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("?%s: %d, want 400", q, resp.StatusCode)
		}
	}

	// An oversized limit is capped, not rejected.
	var pl JobListPage
	if resp := getJSON(t, srv.URL+"/v1/jobs?limit=99999", &pl); resp.StatusCode != http.StatusOK {
		t.Fatalf("capped limit: %d", resp.StatusCode)
	}
	if pl.Count != len(ids) || pl.NextAfter != "" {
		t.Fatalf("capped-limit page: %+v", pl)
	}
}

// TestHTTPIdempotencyKeyHeader pins the wire contract: the same
// Idempotency-Key returns the original job with an explicit
// Idempotency-Replayed marker, so a client retrying a timed-out POST
// cannot double-submit.
func TestHTTPIdempotencyKeyHeader(t *testing.T) {
	_, srv := newTestServer(t)
	w := smallWorkload()
	body, _ := json.Marshal(JobSpec{Machine: "PPC", Kernel: core.BeamSteering, Workload: &w})

	post := func() (*http.Response, Job) {
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Idempotency-Key", "retry-abc123")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var job Job
		_ = json.NewDecoder(resp.Body).Decode(&job)
		return resp, job
	}

	resp, first := post()
	if resp.StatusCode != http.StatusAccepted || resp.Header.Get("Idempotency-Replayed") != "" {
		t.Fatalf("first submit: %d replayed=%q", resp.StatusCode, resp.Header.Get("Idempotency-Replayed"))
	}
	resp, second := post()
	if resp.Header.Get("Idempotency-Replayed") != "true" {
		t.Fatalf("retry not marked replayed: %v", resp.Header)
	}
	if second.ID != first.ID {
		t.Fatalf("retry created job %s, want original %s", second.ID, first.ID)
	}
}

// TestHTTPHealthzJournalSection: a durable daemon's /healthz carries
// the journal block (sync stats + replay report); a memory-only one
// omits it.
func TestHTTPHealthzJournalSection(t *testing.T) {
	s, err := OpenDurable(Options{Pool: PoolOptions{Workers: 2, JobTimeout: time.Minute}},
		journal.Options{Dir: t.TempDir(), Sync: journal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer func() {
		srv.Close()
		s.Close()
	}()

	w := smallWorkload()
	job, err := s.Submit(JobSpec{Machine: "PPC", Kernel: core.CornerTurn, Workload: &w})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(t.Context(), job.ID); err != nil {
		t.Fatal(err)
	}

	// accepted + started + done at minimum. Under SyncAlways the started
	// and done records are appended with a deferred fsync that the
	// group's end commits, and Wait can return before that, so poll
	// until the lag closes.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var h Health
		if resp := getJSON(t, srv.URL+"/healthz", &h); resp.StatusCode != http.StatusOK {
			t.Fatalf("durable healthz: %d", resp.StatusCode)
		}
		if h.Journal == nil {
			t.Fatal("durable healthz missing journal section")
		}
		if h.Journal.Appended < 3 || h.Journal.AppendErrors != 0 {
			t.Fatalf("journal health: %+v", h.Journal)
		}
		if h.Journal.Lag == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("journal lag still open after 5s: %+v", h.Journal)
		}
		time.Sleep(5 * time.Millisecond)
	}

	s2, srv2 := newTestServer(t)
	_ = s2
	var h2 Health
	if resp := getJSON(t, srv2.URL+"/healthz", &h2); resp.StatusCode != http.StatusOK {
		t.Fatalf("memory-only healthz: %d", resp.StatusCode)
	}
	if h2.Journal != nil {
		t.Fatalf("memory-only healthz has journal section: %+v", h2.Journal)
	}
}
