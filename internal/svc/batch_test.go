// Batch/grid fast-path tests: group admission, NDJSON streaming, the
// error paths (malformed lines, partial failure, disconnect, size
// caps), and group-commit replay.
package svc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sigkern/internal/core"
	"sigkern/internal/journal"
	"sigkern/internal/kernels/beamsteer"
	"sigkern/internal/kernels/cornerturn"
	"sigkern/internal/kernels/cslc"
	"sigkern/internal/machines"
)

// freshRun simulates a normalized spec on a fresh paper machine: the
// reference every served answer must reproduce bit for bit.
func freshRun(spec JobSpec) (core.Result, error) {
	m, err := machines.ByName(spec.Machine)
	if err != nil {
		return core.Result{}, err
	}
	return core.Run(m, spec.Kernel, *spec.Workload)
}

func TestBatchGridExpand(t *testing.T) {
	w := smallWorkload()
	grid := BatchGrid{Machines: []string{"VIRAM", "Raw"}, Kernels: []core.KernelID{core.CornerTurn}, Workloads: []*core.Workload{&w}}
	specs := grid.Expand()
	if len(specs) != 2 {
		t.Fatalf("expanded %d cells, want 2", len(specs))
	}
	if specs[0].Machine != "VIRAM" || specs[1].Machine != "Raw" {
		t.Fatalf("row-major order broken: %+v", specs)
	}
	// Defaults: all five machines x all three kernels x paper workload.
	if n := len(BatchGrid{}.Expand()); n != 15 {
		t.Fatalf("default grid expanded %d cells, want 15", n)
	}
}

// TestSubmitBatchMatchesSequential is the bit-identity acceptance
// check at the service layer: a batch grid's cycle counts must equal
// fresh sequential runs exactly.
func TestSubmitBatchMatchesSequential(t *testing.T) {
	s := NewService(Options{Pool: PoolOptions{Workers: 8, JobTimeout: time.Minute}})
	defer s.Close()
	w := smallWorkload()
	specs := BatchGrid{Workloads: []*core.Workload{&w}}.Expand()

	run, err := s.SubmitBatch(context.Background(), specs, BatchOptions{Priority: PriorityBatch})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Jobs()) != len(specs) {
		t.Fatalf("accepted %d members, want %d", len(run.Jobs()), len(specs))
	}
	got := make(map[int]Job)
	for br := range run.Results() {
		got[br.Index] = br.Job
	}
	if len(got) != len(specs) {
		t.Fatalf("streamed %d results, want %d", len(got), len(specs))
	}
	for i, spec := range specs {
		j, ok := got[i]
		if !ok {
			t.Fatalf("cell %d never completed", i)
		}
		if j.State != Done || j.Result == nil {
			t.Fatalf("cell %d: state %s error %q", i, j.State, j.Error)
		}
		norm, err := spec.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		ref, err := freshRun(norm)
		if err != nil {
			t.Fatal(err)
		}
		if j.Result.Cycles != ref.Cycles {
			t.Fatalf("cell %d (%s/%s): batch %d cycles, fresh %d",
				i, spec.Machine, spec.Kernel, j.Result.Cycles, ref.Cycles)
		}
	}
	snap := s.Metrics().Snapshot()
	if snap.BatchGroups != 1 || snap.BatchCells != uint64(len(specs)) {
		t.Fatalf("batch metrics: %+v", snap)
	}
}

// TestSubmitBatchSpecErrorIndex pins the index-carrying validation
// error the HTTP layer maps to a line number.
func TestSubmitBatchSpecErrorIndex(t *testing.T) {
	s := NewService(Options{Pool: PoolOptions{Workers: 1}})
	defer s.Close()
	specs := []JobSpec{
		{Machine: "VIRAM", Kernel: core.CornerTurn},
		{Machine: "Pentium", Kernel: core.CornerTurn},
	}
	_, err := s.SubmitBatch(context.Background(), specs, BatchOptions{})
	var bse *BatchSpecError
	if !errors.As(err, &bse) {
		t.Fatalf("error = %v, want BatchSpecError", err)
	}
	if bse.Index != 1 {
		t.Fatalf("index = %d, want 1", bse.Index)
	}
	if _, err := s.SubmitBatch(context.Background(), nil, BatchOptions{}); !errors.Is(err, ErrBatchEmpty) {
		t.Fatalf("empty batch error = %v", err)
	}
	if _, err := s.SubmitBatch(context.Background(), make([]JobSpec, MaxBatchCells+1), BatchOptions{}); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("oversize batch error = %v", err)
	}
}

// postNDJSON posts an NDJSON body to /v1/batch and returns the
// response; the caller owns resp.Body.
func postNDJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/batch", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// readBatchStream decodes every NDJSON line of a batch response into
// cell lines plus the final summary.
func readBatchStream(t *testing.T, body io.Reader) (cells []BatchResult, sum BatchSummary) {
	t.Helper()
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	sawSummary := false
	for sc.Scan() {
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		if sawSummary {
			t.Fatalf("line after summary: %s", raw)
		}
		var probe struct {
			ID   string `json:"id"`
			Done bool   `json:"done"`
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			t.Fatalf("bad stream line %q: %v", raw, err)
		}
		if probe.ID == "" && probe.Done {
			if err := json.Unmarshal(raw, &sum); err != nil {
				t.Fatal(err)
			}
			sawSummary = true
			continue
		}
		var br BatchResult
		if err := json.Unmarshal(raw, &br); err != nil {
			t.Fatalf("bad cell line %q: %v", raw, err)
		}
		cells = append(cells, br)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawSummary {
		t.Fatal("stream ended without a summary line")
	}
	return cells, sum
}

// TestHTTPBatchGridForm posts the compact grid form and checks the
// streamed cells cover the grid with correct, bit-identical results.
func TestHTTPBatchGridForm(t *testing.T) {
	_, srv := newTestServer(t)
	w := smallWorkload()
	body, err := json.Marshal(BatchGrid{Machines: []string{"VIRAM", "Raw"}, Workloads: []*core.Workload{&w}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/batch?priority=batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q", ct)
	}
	cells, sum := readBatchStream(t, resp.Body)
	if len(cells) != 6 || sum.Cells != 6 || sum.Failed != 0 {
		t.Fatalf("cells %d, summary %+v", len(cells), sum)
	}
	seen := map[int]bool{}
	for _, c := range cells {
		if seen[c.Index] {
			t.Fatalf("index %d streamed twice", c.Index)
		}
		seen[c.Index] = true
		if c.State != Done || c.Result == nil {
			t.Fatalf("cell %d: %s %q", c.Index, c.State, c.Error)
		}
		norm, err := c.Spec.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		ref, err := freshRun(norm)
		if err != nil {
			t.Fatal(err)
		}
		if c.Result.Cycles != ref.Cycles {
			t.Fatalf("cell %d: %d cycles, fresh %d", c.Index, c.Result.Cycles, ref.Cycles)
		}
	}
}

// TestHTTPBatchNDJSONIndexRemap submits NDJSON lines with explicit
// index fields (the gateway's split protocol) and expects them echoed.
func TestHTTPBatchNDJSONIndexRemap(t *testing.T) {
	_, srv := newTestServer(t)
	w := smallWorkload()
	wj, _ := json.Marshal(&w)
	body := fmt.Sprintf(`{"machine":"VIRAM","kernel":"corner-turn","workload":%s,"index":40}
{"machine":"Raw","kernel":"corner-turn","workload":%s,"index":7}
`, wj, wj)
	resp := postNDJSON(t, srv.URL, body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	cells, sum := readBatchStream(t, resp.Body)
	if len(cells) != 2 || sum.Cells != 2 {
		t.Fatalf("cells %d, summary %+v", len(cells), sum)
	}
	want := map[int]string{40: "VIRAM", 7: "Raw"}
	for _, c := range cells {
		machine, ok := want[c.Index]
		if !ok {
			t.Fatalf("unexpected index %d", c.Index)
		}
		if c.Spec.Machine != machine {
			t.Fatalf("index %d: machine %s, want %s", c.Index, c.Spec.Machine, machine)
		}
		delete(want, c.Index)
	}
}

// TestHTTPBatchMalformedLine pins the structured 400: the ParamError
// names the offending 1-based line.
func TestHTTPBatchMalformedLine(t *testing.T) {
	_, srv := newTestServer(t)
	body := `{"machine":"VIRAM","kernel":"corner-turn"}
{"machine": oops}
{"machine":"Raw","kernel":"corner-turn"}
`
	resp := postNDJSON(t, srv.URL, body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var pe ParamError
	if err := json.NewDecoder(resp.Body).Decode(&pe); err != nil {
		t.Fatal(err)
	}
	if pe.Parameter != "line" || pe.Value != "2" {
		t.Fatalf("ParamError = %+v, want line 2", pe)
	}

	// An invalid spec (parse-clean, semantically wrong) also points at
	// its line.
	resp2 := postNDJSON(t, srv.URL, `{"machine":"VIRAM","kernel":"corner-turn"}
{"machine":"Pentium","kernel":"corner-turn"}
`)
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp2.StatusCode)
	}
	var pe2 ParamError
	if err := json.NewDecoder(resp2.Body).Decode(&pe2); err != nil {
		t.Fatal(err)
	}
	if pe2.Parameter != "line" || pe2.Value != "2" {
		t.Fatalf("ParamError = %+v, want line 2", pe2)
	}
}

// TestBatchAndDSEBodyCaps pins the shared decoders' caps, which simserved
// and the gateway both answer through: a line over MaxBodyBytes is a
// *BatchLineError naming it (400), and a body over MaxBatchBodyBytes, in
// either batch form or as an exploration, is TooLarge (413).
func TestBatchAndDSEBodyCaps(t *testing.T) {
	good := `{"machine":"VIRAM","kernel":"corner-turn"}` + "\n"
	_, _, err := ReadBatch(strings.NewReader(good+strings.Repeat("x", MaxBodyBytes+1)+"\n"), ndjsonContentType)
	var le *BatchLineError
	if !errors.As(err, &le) || le.Line != 2 || TooLarge(err) {
		t.Fatalf("over-long line: %v, want a BatchLineError naming line 2", err)
	}
	// Blank lines of half a line cap each, past the body cap in total.
	over := strings.Repeat(strings.Repeat(" ", MaxBodyBytes/2)+"\n", 2*MaxBatchBodyBytes/MaxBodyBytes+1)
	if _, _, err := ReadBatch(strings.NewReader(good+over), ndjsonContentType); !TooLarge(err) {
		t.Fatalf("over-cap NDJSON body: %v", err)
	}
	if _, _, err := ReadBatch(strings.NewReader(over+"{}"), "application/json"); !TooLarge(err) {
		t.Fatalf("over-cap grid body: %v", err)
	}
	if _, _, err := ReadDSE(strings.NewReader(over + "{}")); !TooLarge(err) {
		t.Fatalf("over-cap dse body: %v", err)
	}

	s := NewService(Options{Pool: PoolOptions{Workers: 1}})
	defer s.Close()
	for _, path := range []string{"/v1/batch", "/v1/dse"} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(over)))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("POST %s over the body cap: %d, want 413", path, rec.Code)
		}
	}
}

// TestHTTPBatchOversized pins the documented cap: more than
// MaxBatchCells cells is 413, before any admission work.
func TestHTTPBatchOversized(t *testing.T) {
	_, srv := newTestServer(t)
	var sb strings.Builder
	for i := 0; i <= MaxBatchCells; i++ {
		sb.WriteString(`{"machine":"VIRAM","kernel":"corner-turn"}` + "\n")
	}
	resp := postNDJSON(t, srv.URL, sb.String())
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

// TestHTTPBatchPartialFailure: one cell's machine factory fails
// terminally while its siblings succeed — the stream must carry the
// failed cell as a failed line, not poison the group.
func TestHTTPBatchPartialFailure(t *testing.T) {
	s := NewService(Options{Pool: PoolOptions{Workers: 4, JobTimeout: time.Minute}, Factory: func(name string) (core.Machine, error) {
		if name == "Raw" {
			return nil, fmt.Errorf("injected: no %s backend", name)
		}
		return machines.ByName(name)
	}})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	defer s.Close()

	w := smallWorkload()
	body, _ := json.Marshal(BatchGrid{
		Machines:  []string{"VIRAM", "Raw", "Imagine"},
		Kernels:   []core.KernelID{core.CornerTurn},
		Workloads: []*core.Workload{&w},
	})
	resp, err := http.Post(srv.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	cells, sum := readBatchStream(t, resp.Body)
	if len(cells) != 3 || sum.Cells != 3 {
		t.Fatalf("cells %d, summary %+v", len(cells), sum)
	}
	if sum.Failed != 1 {
		t.Fatalf("summary.Failed = %d, want 1", sum.Failed)
	}
	for _, c := range cells {
		if c.Spec.Machine == "Raw" {
			if c.State != Failed || !strings.Contains(c.Error, "injected") {
				t.Fatalf("Raw cell: state %s error %q", c.State, c.Error)
			}
			continue
		}
		if c.State != Done || c.Result == nil {
			t.Fatalf("%s cell: state %s error %q", c.Spec.Machine, c.State, c.Error)
		}
	}
}

// gateMachine blocks each kernel run until the gate channel is closed
// (or yields), serializing batch progress so cancellation tests can
// catch cells still queued.
type gateMachine struct {
	leakyMachine
	gate <-chan struct{}
}

func (m *gateMachine) run() (core.Result, error) {
	<-m.gate
	return core.Result{Cycles: 100, Verified: true}, nil
}

func (m *gateMachine) RunCornerTurn(cornerturn.Spec) (core.Result, error)  { return m.run() }
func (m *gateMachine) RunCSLC(cslc.Spec) (core.Result, error)              { return m.run() }
func (m *gateMachine) RunBeamSteering(beamsteer.Spec) (core.Result, error) { return m.run() }

// distinctSpecs returns n valid specs with distinct hashes (so neither
// the memo nor coalescing collapses them).
func distinctSpecs(n int) []JobSpec {
	specs := make([]JobSpec, n)
	for i := range specs {
		w := smallWorkload()
		w.CornerTurn.Rows = 16 << uint(i%3)
		w.CornerTurn.Cols = 16 * (i + 1)
		specs[i] = JobSpec{Machine: "VIRAM", Kernel: core.CornerTurn, Workload: &w}
	}
	return specs
}

// TestBatchCancelDropsOnlyUnstarted: cancelling a running group fails
// queued cells with context.Canceled at pickup while started cells
// complete normally.
func TestBatchCancelDropsOnlyUnstarted(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 16)
	s := NewService(Options{Pool: PoolOptions{Workers: 1, JobTimeout: time.Minute}, Factory: func(name string) (core.Machine, error) {
		started <- struct{}{}
		return &gateMachine{gate: gate}, nil
	}})
	defer s.Close()

	run, err := s.SubmitBatch(context.Background(), distinctSpecs(6), BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the single worker to start cell one, then cancel the
	// group and release the gate.
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("no cell ever started")
	}
	run.Cancel()
	close(gate)

	var done, cancelled int
	for br := range run.Results() {
		switch {
		case br.State == Done:
			done++
		case br.State == Failed && strings.Contains(br.Error, context.Canceled.Error()):
			cancelled++
		default:
			t.Fatalf("cell %d: state %s error %q", br.Index, br.State, br.Error)
		}
	}
	if done == 0 {
		t.Fatal("the started cell did not complete")
	}
	if cancelled == 0 {
		t.Fatal("no queued cell was cancelled")
	}
	if done+cancelled != 6 {
		t.Fatalf("done %d + cancelled %d != 6", done, cancelled)
	}
}

// TestHTTPBatchClientDisconnect wires the same property through the
// handler: closing the response mid-stream cancels the group's
// unstarted cells, and every member still reaches a terminal state.
func TestHTTPBatchClientDisconnect(t *testing.T) {
	gate := make(chan struct{}, 64)
	var gateOnce sync.Once
	s := NewService(Options{Pool: PoolOptions{Workers: 1, JobTimeout: time.Minute}, Factory: func(name string) (core.Machine, error) {
		return &gateMachine{gate: gate}, nil
	}})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	defer s.Close()

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, spec := range distinctSpecs(6) {
		if err := enc.Encode(spec); err != nil {
			t.Fatal(err)
		}
	}
	resp := postNDJSON(t, srv.URL, buf.String())
	// Let exactly one cell through, read its line, then hang up. The
	// single worker is now parked inside cell two's kernel run.
	gate <- struct{}{}
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadBytes('\n'); err != nil {
		t.Fatalf("first stream line: %v", err)
	}
	resp.Body.Close()
	// The server notices the dropped connection asynchronously; wait for
	// the handler's AfterFunc to cancel the group before releasing the
	// gate, so queued cells are deterministically dropped at pickup
	// instead of racing the worker to completion.
	cancelSeen := time.Now().Add(10 * time.Second)
	for s.Metrics().Snapshot().BatchCancels == 0 {
		if time.Now().After(cancelSeen) {
			t.Fatal("disconnect never cancelled the batch")
		}
		time.Sleep(2 * time.Millisecond)
	}
	gateOnce.Do(func() {
		for i := 0; i < 16; i++ {
			gate <- struct{}{}
		}
	})

	deadline := time.Now().Add(10 * time.Second)
	for {
		jobs := s.Jobs()
		terminal, done, cancelled := 0, 0, 0
		for _, j := range jobs {
			if j.State.Terminal() {
				terminal++
			}
			if j.State == Done {
				done++
			}
			if j.State == Failed && strings.Contains(j.Error, context.Canceled.Error()) {
				cancelled++
			}
		}
		if len(jobs) == 6 && terminal == 6 {
			if done == 0 {
				t.Fatal("no cell completed before the disconnect")
			}
			if cancelled == 0 {
				t.Fatal("disconnect cancelled nothing")
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("members never reached terminal states: %d/%d terminal", terminal, len(jobs))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBatchGroupCommitReplay: a durable service journals one group
// record per accepted batch; reopening the journal restores every
// member under its original ID with its result.
func TestBatchGroupCommitReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDurable(Options{Pool: PoolOptions{Workers: 4, JobTimeout: time.Minute}}, journal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	w := smallWorkload()
	specs := BatchGrid{Machines: []string{"VIRAM", "Raw"}, Workloads: []*core.Workload{&w}}.Expand()
	run, err := s.SubmitBatch(context.Background(), specs, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]uint64) // id -> cycles
	for br := range run.Results() {
		if br.State != Done || br.Result == nil {
			t.Fatalf("cell %d: %s %q", br.Index, br.State, br.Error)
		}
		want[br.ID] = br.Result.Cycles
	}
	s.Close()

	s2, err := OpenDurable(Options{Pool: PoolOptions{Workers: 4, JobTimeout: time.Minute}}, journal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.ReplayStats().JobsRestored; got < len(specs) {
		t.Fatalf("restored %d jobs, want >= %d", got, len(specs))
	}
	for id, cycles := range want {
		j, ok := s2.Job(id)
		if !ok {
			t.Fatalf("member %s lost across restart", id)
		}
		if j.State != Done || j.Result == nil || j.Result.Cycles != cycles {
			t.Fatalf("member %s replayed as %s/%v, want Done/%d", id, j.State, j.Result, cycles)
		}
	}
}

// TestBatchReplayReRunsNonTerminalMembers simulates the crash window:
// a group's acceptance record is durable but its members never reached
// a terminal record. The journal holds only the eventBatch frame — no
// clean shutdown, no snapshot — and replay must restore the members as
// queued and re-run them to the same deterministic answers.
func TestBatchReplayReRunsNonTerminalMembers(t *testing.T) {
	dir := t.TempDir()
	w := smallWorkload()
	specs := []JobSpec{
		{Machine: "VIRAM", Kernel: core.CornerTurn, Workload: &w},
		{Machine: "Raw", Kernel: core.BeamSteering, Workload: &w},
	}
	// Write the group acceptance straight into a raw journal and walk
	// away — the exact on-disk state after a crash mid-batch.
	j, _, err := journal.Open(journal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ev := jobEvent{Type: eventBatch, Seq: uint64(len(specs)), Time: time.Now()}
	ids := make([]string, len(specs))
	for i, spec := range specs {
		norm, err := spec.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		hash, err := norm.Hash()
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = fmt.Sprintf("j%06d-%s", i+1, hash[:8])
		ev.Batch = append(ev.Batch, batchMember{ID: ids[i], Hash: hash, Spec: norm})
	}
	data, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(data); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenDurable(Options{Pool: PoolOptions{Workers: 2, JobTimeout: time.Minute}}, journal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, id := range ids {
		j, err := s2.Wait(ctx, id)
		if err != nil {
			t.Fatalf("member %s: %v", id, err)
		}
		if j.State != Done || j.Result == nil {
			t.Fatalf("member %s re-ran to %s %q", id, j.State, j.Error)
		}
		norm, _ := specs[i].Normalize()
		ref, err := freshRun(norm)
		if err != nil {
			t.Fatal(err)
		}
		if j.Result.Cycles != ref.Cycles {
			t.Fatalf("member %s: replayed run %d cycles, fresh %d", id, j.Result.Cycles, ref.Cycles)
		}
	}
}
