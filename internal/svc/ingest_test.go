package svc

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sigkern/internal/core"
	"sigkern/internal/journal"
)

// tearLastSegment appends garbage to the newest WAL segment — the
// shape of a crash mid-append — and returns how many bytes it added.
func tearLastSegment(t *testing.T, dir string) int {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s: %v %v", dir, segs, err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	garbage := []byte{0xDE, 0xAD, 0xBE}
	if _, err := f.Write(garbage); err != nil {
		t.Fatal(err)
	}
	return len(garbage)
}

// TestExportIngestRoundTrip is the rebalance data path end to end: a
// shard's WAL — torn final segment included — exported read-only,
// folded by RecoverJobs, and ingested into a fresh service must
// reproduce every terminal job ID and result byte-for-byte, rebind
// idempotency keys, and seed the memo so the successor never
// re-simulates work the departed shard finished.
func TestExportIngestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opts := durableOpts()
	opts.ShardID = "s1"
	s := openDurable(t, dir, opts)
	w := smallWorkload()
	specs := []JobSpec{
		{Machine: "AltiVec", Kernel: core.BeamSteering, Workload: &w},
		{Machine: "PPC", Kernel: core.CornerTurn, Workload: &w},
		{Machine: "VIRAM", Kernel: core.CornerTurn, Workload: &w},
	}
	want := make(map[string][]byte) // job ID -> marshaled result
	var keyed Job
	for i, spec := range specs {
		key := ""
		if i == 0 {
			key = "client-key-0"
		}
		job, _, err := s.Admit(spec, key, BatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		final, err := s.Wait(context.Background(), job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(final.ID, "s1-j") {
			t.Fatalf("shard ID prefix missing: %q", final.ID)
		}
		data, err := json.Marshal(final.Result)
		if err != nil {
			t.Fatal(err)
		}
		want[final.ID] = data
		if i == 0 {
			keyed = final
		}
	}
	crash(s)
	tearLastSegment(t, dir)

	rec, err := journal.Export(dir)
	if err != nil {
		t.Fatal(err)
	}
	jobs, memo, st := RecoverJobs(rec)
	if st.Truncations != 1 {
		t.Fatalf("torn tail not surfaced by export: %+v", st)
	}
	if st.JobsRestored != len(specs) || st.ResultsRestored < len(specs) {
		t.Fatalf("recover stats: %+v", st)
	}

	s2dir := t.TempDir()
	opts2 := durableOpts()
	opts2.ShardID = "s2"
	s2 := openDurable(t, s2dir, opts2)
	defer s2.Close()
	ist, err := s2.IngestJobs(jobs, memo)
	if err != nil {
		t.Fatal(err)
	}
	if ist.JobsIngested != len(specs) || ist.Conflicts != 0 || ist.Rejected != 0 {
		t.Fatalf("ingest stats: %+v", ist)
	}

	for id, data := range want {
		got, ok := s2.Job(id)
		if !ok {
			t.Fatalf("job %s lost in rebalance", id)
		}
		if got.State != Done {
			t.Fatalf("job %s ingested as %s, want done", id, got.State)
		}
		gotData, err := json.Marshal(got.Result)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotData, data) {
			t.Fatalf("job %s result drifted across rebalance:\n  origin    %s\n  successor %s", id, data, gotData)
		}
	}

	// The client's idempotency key crossed over: resubmitting it on the
	// successor finds the original job, not duplicate work.
	replay, replayed, err := s2.Admit(keyed.Spec, "client-key-0", BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !replayed || replay.ID != keyed.ID {
		t.Fatalf("idempotent resubmit got %s (replayed=%v), want %s", replay.ID, replayed, keyed.ID)
	}
	// And the memo crossed over: fresh work for a rebalanced spec is a
	// cache hit with the origin shard's exact cycle count.
	fresh, _, err := s2.Admit(specs[1], "fresh-key", BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	final, err := s2.Wait(context.Background(), fresh.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !final.FromCache {
		t.Fatalf("rebalanced memo not used: %+v", final)
	}

	// A second ingest of the same payload — the retry after a partial
	// rebalance — is all duplicates, never double work.
	ist2, err := s2.IngestJobs(jobs, memo)
	if err != nil {
		t.Fatal(err)
	}
	if ist2.JobsIngested != 0 || ist2.Duplicates != len(specs) {
		t.Fatalf("re-ingest stats: %+v", ist2)
	}

	// The ingest was journaled: a crash-restart of the successor keeps
	// every rebalanced job and result.
	crash(s2)
	s3 := openDurable(t, s2dir, opts2)
	defer s3.Close()
	for id, data := range want {
		got, ok := s3.Job(id)
		if !ok {
			t.Fatalf("job %s lost in successor restart", id)
		}
		gotData, _ := json.Marshal(got.Result)
		if !bytes.Equal(gotData, data) {
			t.Fatalf("job %s result drifted across successor restart", id)
		}
	}
}

// TestIngestRefusesConflictingResults: an imported result that
// disagrees with the local memo for the same spec hash is refused and
// counted — the determinism guard holds across shard boundaries.
func TestIngestRefusesConflictingResults(t *testing.T) {
	s := NewService(durableOpts())
	defer s.Close()
	w := smallWorkload()
	spec, err := JobSpec{Machine: "PPC", Kernel: core.CornerTurn, Workload: &w}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	hash, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if !s.pool.SeedMemo(hash, core.Result{Cycles: 111}) {
		t.Fatal("local seed refused")
	}
	bad := core.Result{Cycles: 222}
	jobs := []Job{{
		ID:     "sX-j000001-deadbeef",
		Spec:   spec,
		Hash:   hash,
		State:  Done,
		Result: &bad,
	}}
	st, err := s.IngestJobs(jobs, map[string]core.Result{hash: bad})
	if err != nil {
		t.Fatal(err)
	}
	if st.Conflicts != 2 || st.Rejected != 1 || st.JobsIngested != 0 {
		t.Fatalf("conflicting ingest stats: %+v", st)
	}
	if _, ok := s.Job("sX-j000001-deadbeef"); ok {
		t.Fatal("conflicting job was registered")
	}
}

// TestReplayEndpoint drives the ingest over HTTP the way the gateway
// does.
func TestReplayEndpoint(t *testing.T) {
	s := NewService(durableOpts())
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	w := smallWorkload()
	spec, err := JobSpec{Machine: "AltiVec", Kernel: core.BeamSteering, Workload: &w}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	hash, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	res := core.Result{Machine: "AltiVec", Kernel: core.BeamSteering, Cycles: 12345}
	payload, err := json.Marshal(ReplayRequest{
		Jobs: []Job{{ID: "s9-j000001-" + hash[:8], Spec: spec, Hash: hash, State: Done, Result: &res}},
		Memo: map[string]core.Result{hash: res},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/replay", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replay status %d", resp.StatusCode)
	}
	var st IngestStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.JobsIngested != 1 || st.ResultsSeeded != 1 {
		t.Fatalf("replay stats: %+v", st)
	}
	if job, ok := s.Job("s9-j000001-" + hash[:8]); !ok || job.State != Done || job.Result.Cycles != 12345 {
		t.Fatalf("replayed job missing or wrong: %+v ok=%v", job, ok)
	}
}

// TestReadyzDrainSplitsFromHealthz: /readyz answers 503 for a draining
// process while /healthz — liveness, body unchanged — stays 200, so a
// gateway stops routing without the prober declaring the shard dead.
func TestReadyzDrainSplitsFromHealthz(t *testing.T) {
	opts := durableOpts()
	opts.ShardID = "s1"
	s := NewService(opts)
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	get := func(path string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	if code, body := get("/readyz"); code != http.StatusOK || body["ready"] != true {
		t.Fatalf("fresh readyz: %d %v", code, body)
	}

	s.SetDraining(true)
	code, body := get("/readyz")
	if code != http.StatusServiceUnavailable || body["ready"] != false || body["reason"] != "draining" {
		t.Fatalf("draining readyz: %d %v", code, body)
	}
	// Liveness is untouched by drain: same 200, same body shape as
	// before the split (status/degraded/workers/queue fields).
	code, health := get("/healthz")
	if code != http.StatusOK {
		t.Fatalf("draining healthz went %d, want 200", code)
	}
	for _, key := range []string{"status", "degraded", "workers", "queue_depth", "queue_cap", "time"} {
		if _, ok := health[key]; !ok {
			t.Fatalf("healthz body lost field %q: %v", key, health)
		}
	}
	if health["status"] != "ok" || health["degraded"] != false {
		t.Fatalf("drain leaked into liveness: %v", health)
	}

	s.SetDraining(false)
	if code, body := get("/readyz"); code != http.StatusOK || body["ready"] != true {
		t.Fatalf("undrained readyz: %d %v", code, body)
	}
}
