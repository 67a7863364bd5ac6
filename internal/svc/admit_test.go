// Admission tests: a single job is a batch of one — the same path,
// the same answers, the same journal record — and every write endpoint
// maps a server-side refusal onto the same status.
package svc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sigkern/internal/core"
	"sigkern/internal/journal"
)

// brokenServer serves a durable service broken the named way: "pool
// closed" shuts its worker pool; "journal failure" closes its
// write-ahead log, so every acceptance append fails.
func brokenServer(t *testing.T, how string) string {
	t.Helper()
	s := openDurable(t, t.TempDir(), durableOpts())
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		srv.Close()
		s.Close()
	})
	switch how {
	case "pool closed":
		s.Pool().Close()
	case "journal failure":
		if err := s.journal.Close(); err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatalf("unknown breakage %q", how)
	}
	return srv.URL
}

// wantServerRefusal posts body to path on each broken server and
// requires 503: a refusal on the server's side, never the client's 400.
func wantServerRefusal(t *testing.T, path, contentType, body string) {
	t.Helper()
	for _, how := range []string{"pool closed", "journal failure"} {
		resp, err := http.Post(brokenServer(t, how)+path, contentType, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e map[string]string
		_ = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s: POST %s answered %d %q, want 503", how, path, resp.StatusCode, e["error"])
		}
	}
}

func TestHTTPSubmitServerRefusalIs503(t *testing.T) {
	wantServerRefusal(t, "/v1/jobs", "application/json", `{"machine":"VIRAM","kernel":"corner-turn"}`)
}

func TestHTTPBatchServerRefusalIs503(t *testing.T) {
	wantServerRefusal(t, "/v1/batch", ndjsonContentType, `{"machine":"VIRAM","kernel":"corner-turn"}`+"\n")
}

func TestHTTPDSEServerRefusalIs503(t *testing.T) {
	wantServerRefusal(t, "/v1/dse", "application/json", `{"base":{"machine":"VIRAM","kernel":"corner-turn"}}`)
}

// TestSingleJobIsBatchOfOne runs the paper's 15 (machine, kernel) cells
// plus one config-carrying spec on two identical services: one admits
// each as a single job, the other as a one-member batch. Every answer —
// state, cycles, verification, memo use and the trace's event names —
// must agree, on the cold pass and on the memo-hit pass after it. The
// cells run the test-size workload every service test uses.
func TestSingleJobIsBatchOfOne(t *testing.T) {
	w := smallWorkload()
	specs := BatchGrid{Workloads: []*core.Workload{&w}}.Expand()
	designs, err := DSERequest{
		Base: JobSpec{Machine: "VIRAM", Kernel: core.CornerTurn, Workload: &w},
		Axes: []DSEAxis{{Param: "viram.Lanes", Values: []int{4}}},
	}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	specs = append(specs, designs[0].Spec)

	single := NewService(durableOpts())
	defer single.Close()
	batch := NewService(durableOpts())
	defer batch.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for pass := 0; pass < 2; pass++ {
		for i, spec := range specs {
			job, err := single.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			one, err := single.Wait(ctx, job.ID)
			if err != nil {
				t.Fatal(err)
			}
			run, err := batch.SubmitBatch(ctx, []JobSpec{spec}, BatchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			br, ok := <-run.Results()
			if !ok || br.Index != 0 {
				t.Fatalf("cell %d: batch of one streamed %+v", i, br)
			}
			member := br.Job
			if one.State != Done || member.State != Done || one.Result == nil || member.Result == nil {
				t.Fatalf("pass %d cell %d: single %s %q, batch %s %q", pass, i, one.State, one.Error, member.State, member.Error)
			}
			if one.Result.Cycles != member.Result.Cycles || one.Result.Verified != member.Result.Verified ||
				one.FromCache != member.FromCache || one.FromCache != (pass == 1) {
				t.Fatalf("pass %d cell %d (%s/%s): single %d cycles verified=%v cached=%v, batch %d verified=%v cached=%v",
					pass, i, spec.Machine, spec.Kernel, one.Result.Cycles, one.Result.Verified, one.FromCache,
					member.Result.Cycles, member.Result.Verified, member.FromCache)
			}
			if a, b := strings.Join(eventNames(one.Trace), ","), strings.Join(eventNames(member.Trace), ","); a != b {
				t.Fatalf("pass %d cell %d: single trace %s, batch trace %s", pass, i, a, b)
			}
		}
	}
}

// TestWaitBlocksOnCompletion: Wait on a job behind a gated stub machine
// stays blocked until the gate opens, then returns the terminal
// snapshot — woken by the job's completion, not by polling.
func TestWaitBlocksOnCompletion(t *testing.T) {
	gate := make(chan struct{})
	s := NewService(Options{Pool: PoolOptions{Workers: 1, JobTimeout: time.Minute}, Factory: func(name string) (core.Machine, error) {
		return &gateMachine{gate: gate}, nil
	}})
	defer s.Close()
	job, err := s.Submit(JobSpec{Machine: "VIRAM", Kernel: core.CornerTurn})
	if err != nil {
		t.Fatal(err)
	}
	waited := make(chan Job, 1)
	go func() {
		j, err := s.Wait(context.Background(), job.ID)
		if err != nil {
			t.Error(err)
		}
		waited <- j
	}()
	select {
	case j := <-waited:
		t.Fatalf("Wait returned a %s job before the gate opened", j.State)
	case <-time.After(100 * time.Millisecond):
	}
	close(gate)
	select {
	case j := <-waited:
		if j.ID != job.ID || j.State != Done || j.Result == nil || j.Result.Cycles != 100 {
			t.Fatalf("Wait returned %+v, want the done job", j)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Wait never returned after the job finished")
	}
}

// TestLegacyWALReplays: a journal holding per-job accepted, started,
// done and failed records — the format written before every admission
// became a batch_accepted record — still replays. Terminal jobs come
// back with their results and idempotency keys, an unfinished job runs
// again under its original ID, and the ID counter carries on.
func TestLegacyWALReplays(t *testing.T) {
	dir := t.TempDir()
	w := smallWorkload()
	specs := []JobSpec{
		{Machine: "AltiVec", Kernel: core.BeamSteering, Workload: &w}, // done, client key
		{Machine: "PPC", Kernel: core.BeamSteering, Workload: &w},     // failed, spec-hash key
		{Machine: "VIRAM", Kernel: core.CornerTurn, Workload: &w},     // unfinished
	}
	norms := make([]JobSpec, len(specs))
	hashes := make([]string, len(specs))
	ids := make([]string, len(specs))
	for i, spec := range specs {
		norm, err := spec.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		if hashes[i], err = norm.Hash(); err != nil {
			t.Fatal(err)
		}
		norms[i] = norm
		ids[i] = fmt.Sprintf("j%06d-%s", i+1, hashes[i][:8])
	}
	ref, err := freshRun(norms[0])
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"legacy-key", hashes[1], hashes[2]}

	j, _, err := journal.Open(journal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	var events []jobEvent
	for i := range specs {
		events = append(events,
			jobEvent{Type: eventAccepted, ID: ids[i], Seq: uint64(i + 1), IdemKey: keys[i], Hash: hashes[i], Spec: &norms[i], Time: now},
			jobEvent{Type: eventStarted, ID: ids[i], Time: now})
	}
	events = append(events,
		jobEvent{Type: eventDone, ID: ids[0], Hash: hashes[0], Result: &ref, Time: now},
		jobEvent{Type: eventFailed, ID: ids[1], Error: "backend down", Time: now})
	for _, ev := range events {
		data, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append(data); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	s := openDurable(t, dir, durableOpts())
	defer s.Close()
	if st := s.ReplayStats(); st.JobsRestored != 3 || st.Requeued != 1 || st.BadRecords != 0 {
		t.Fatalf("replay stats: %+v", st)
	}
	if got, ok := s.Job(ids[0]); !ok || got.State != Done || got.Result == nil || got.Result.Cycles != ref.Cycles || got.IdemKey != "legacy-key" {
		t.Fatalf("done job replayed as %+v", got)
	}
	if got, ok := s.Job(ids[1]); !ok || got.State != Failed || got.Error != "backend down" {
		t.Fatalf("failed job replayed as %+v", got)
	}
	for i, key := range []string{"legacy-key", ""} {
		again, replayed, err := s.Admit(specs[i], key, BatchOptions{})
		if err != nil || !replayed || again.ID != ids[i] {
			t.Fatalf("resubmit %d under key %q: %s replayed=%v err %v, want %s", i, key, again.ID, replayed, err, ids[i])
		}
	}
	final, err := s.Wait(context.Background(), ids[2])
	if err != nil {
		t.Fatal(err)
	}
	want, err := freshRun(norms[2])
	if err != nil {
		t.Fatal(err)
	}
	if final.State != Done || final.Result == nil || final.Result.Cycles != want.Cycles {
		t.Fatalf("unfinished job re-ran to %+v, want %d cycles", final, want.Cycles)
	}
	next, err := s.Submit(JobSpec{Machine: "Raw", Kernel: core.BeamSteering, Workload: &w})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(next.ID, "j000004-") {
		t.Fatalf("first job after replay is %s, want the counter to carry on at j000004", next.ID)
	}
}

// TestIdempotencyKeySurvivesCrash: a single job submitted under an
// Idempotency-Key is journaled through its admission's batch_accepted
// member record, and after a crash resubmitting the key returns the
// original job with Idempotency-Replayed: true.
func TestIdempotencyKeySurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	w := smallWorkload()
	spec := JobSpec{Machine: "AltiVec", Kernel: core.BeamSteering, Workload: &w}
	post := func(url string) (*http.Response, Job) {
		t.Helper()
		resp := postJobRaw(t, url+"/v1/jobs?wait=1", spec, map[string]string{"Idempotency-Key": "client-key"})
		defer resp.Body.Close()
		var job Job
		if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
			t.Fatal(err)
		}
		return resp, job
	}

	s := openDurable(t, dir, durableOpts())
	srv := httptest.NewServer(s.Handler())
	resp, first := post(srv.URL)
	if resp.StatusCode != http.StatusOK || first.State != Done || first.Result == nil {
		t.Fatalf("first submit: %d %+v", resp.StatusCode, first)
	}
	srv.Close()
	crash(s)

	rec, err := journal.Export(dir)
	if err != nil {
		t.Fatal(err)
	}
	journaled := false
	for _, raw := range rec.Records {
		var ev jobEvent
		if err := json.Unmarshal(raw, &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Type == eventAccepted {
			t.Fatalf("a per-job accepted record was written: %s", raw)
		}
		for _, m := range ev.Batch {
			journaled = journaled || (ev.Type == eventBatch && m.ID == first.ID && m.IdemKey == "client-key")
		}
	}
	if !journaled {
		t.Fatal("no batch_accepted member record carries the job's key")
	}

	s2 := openDurable(t, dir, durableOpts())
	defer s2.Close()
	srv2 := httptest.NewServer(s2.Handler())
	defer srv2.Close()
	resp, again := post(srv2.URL)
	if resp.Header.Get("Idempotency-Replayed") != "true" || again.ID != first.ID {
		t.Fatalf("resubmit after crash: %s replayed=%q, want %s replayed", again.ID, resp.Header.Get("Idempotency-Replayed"), first.ID)
	}
	if again.Result == nil || !bytes.Equal(mustJSON(t, again.Result), mustJSON(t, first.Result)) {
		t.Fatalf("replayed job's result %+v, want %+v", again.Result, first.Result)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
