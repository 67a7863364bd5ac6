package svc

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"sigkern/internal/core"
	"sigkern/internal/journal"
	"sigkern/internal/kernels/beamsteer"
	"sigkern/internal/kernels/cornerturn"
	"sigkern/internal/kernels/cslc"
	"sigkern/internal/roofline"
)

// postTier submits spec with the given raw ?tier= value and decodes the
// response body into out (a *Job or *ParamError, caller's choice).
func postTier(t *testing.T, url, tier string, spec JobSpec, out any) *http.Response {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	u := url + "/v1/jobs"
	if tier != "" {
		u += "?tier=" + tier
	}
	resp, err := http.Post(u, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: %v", u, err)
		}
	}
	return resp
}

// TestHTTPTierValidation covers the three submission paths of the tier
// parameter: an unknown value is a structured 400, while the default
// and an explicit ?tier=simulate both run the pre-tier simulate flow.
func TestHTTPTierValidation(t *testing.T) {
	_, srv := newTestServer(t)
	w := smallWorkload()
	spec := JobSpec{Machine: "VIRAM", Kernel: core.CornerTurn, Workload: &w}

	var pe ParamError
	resp := postTier(t, srv.URL, "premium", spec, &pe)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown tier: status %d, want 400", resp.StatusCode)
	}
	if pe.Parameter != "tier" || pe.Value != "premium" {
		t.Fatalf("error body identifies %q=%q, want tier=premium", pe.Parameter, pe.Value)
	}
	if len(pe.Want) != 3 || pe.Want[0] != "auto" || pe.Want[1] != "estimate" || pe.Want[2] != "simulate" {
		t.Fatalf("error body offers %v", pe.Want)
	}
	if !strings.Contains(pe.Error, "premium") {
		t.Fatalf("error message %q does not name the bad value", pe.Error)
	}

	// Tier casing is strict: query values are protocol tokens.
	resp = postTier(t, srv.URL, "ESTIMATE", spec, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("uppercase tier: status %d, want 400", resp.StatusCode)
	}

	for _, tier := range []string{"", "simulate"} {
		var job Job
		resp := postTier(t, srv.URL, tier, spec, &job)
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			t.Fatalf("tier=%q: status %d", tier, resp.StatusCode)
		}
		if job.Tier != TierSimulate {
			t.Fatalf("tier=%q: job tier %q, want simulate", tier, job.Tier)
		}
		// Simulated jobs are registered and retrievable by ID.
		var got Job
		if resp := getJSON(t, srv.URL+"/v1/jobs/"+job.ID, &got); resp.StatusCode != http.StatusOK {
			t.Fatalf("tier=%q: job %s not registered (status %d)", tier, job.ID, resp.StatusCode)
		}
	}
}

// TestHTTPEstimateTier pins the estimate tier's contract: a synchronous
// 200 carrying the analytic roofline bound, with no pool admission and
// no registry entry.
func TestHTTPEstimateTier(t *testing.T) {
	s, srv := newTestServer(t)
	spec := JobSpec{Machine: "VIRAM", Kernel: core.CornerTurn}

	var job Job
	resp := postTier(t, srv.URL, "estimate", spec, &job)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if job.Tier != TierEstimate || job.State != Done {
		t.Fatalf("job tier=%q state=%q, want estimate/done", job.Tier, job.State)
	}
	if !strings.HasPrefix(job.ID, "est-") {
		t.Fatalf("estimate job ID %q", job.ID)
	}
	want, err := roofline.ForJob("VIRAM", core.CornerTurn, core.PaperWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if job.Result == nil || job.Result.Cycles != want.Cycles {
		t.Fatalf("estimate result %+v, want %d cycles", job.Result, want.Cycles)
	}
	if job.Estimate == nil || job.Estimate.Cycles != want.Cycles || job.Estimate.Bound != want.Bound {
		t.Fatalf("estimate breakdown %+v, want %+v", job.Estimate, want)
	}
	if job.FromCache {
		t.Fatal("first estimate claims a cache hit")
	}

	// Nothing was admitted, registered, or journaled on its behalf.
	if n := len(s.Jobs()); n != 0 {
		t.Fatalf("estimate left %d jobs in the registry", n)
	}
	if resp := getJSON(t, srv.URL+"/v1/jobs/"+job.ID, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET estimate ID: status %d, want 404", resp.StatusCode)
	}
	snap := s.Metrics().Snapshot()
	if snap.Queued != 0 {
		t.Fatalf("estimate admitted %d jobs to the pool", snap.Queued)
	}
	if snap.Estimates != 1 {
		t.Fatalf("estimates served = %d, want 1", snap.Estimates)
	}

	// The repeat answer comes from the estimate memo.
	var again Job
	if resp := postTier(t, srv.URL, "estimate", spec, &again); resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat status %d", resp.StatusCode)
	}
	if !again.FromCache || again.Result.Cycles != want.Cycles {
		t.Fatalf("repeat estimate fromCache=%t cycles=%d", again.FromCache, again.Result.Cycles)
	}

	// A spec the validator rejects is a plain 400.
	if resp := postTier(t, srv.URL, "estimate", JobSpec{Machine: "G5", Kernel: core.CornerTurn}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad machine estimate: status %d, want 400", resp.StatusCode)
	}
}

// TestEstimateNoJournalAppend proves the tier's durability contract on
// a journaling service: estimates append nothing to the WAL, while the
// same spec submitted at the simulate tier does.
func TestEstimateNoJournalAppend(t *testing.T) {
	s, err := OpenDurable(Options{Pool: PoolOptions{Workers: 2, JobTimeout: time.Minute}},
		journal.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w := smallWorkload()
	spec := JobSpec{Machine: "Raw", Kernel: core.BeamSteering, Workload: &w}

	before := s.journal.Stats().Appended
	if _, err := s.Estimate(spec); err != nil {
		t.Fatal(err)
	}
	if got := s.journal.Stats().Appended; got != before {
		t.Fatalf("estimate appended %d journal records", got-before)
	}

	job, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(t.Context(), job.ID); err != nil {
		t.Fatal(err)
	}
	if got := s.journal.Stats().Appended; got <= before {
		t.Fatal("simulate-tier control appended nothing; the assertion above proves nothing")
	}
}

// driftMachine completes every kernel instantly with a fixed cycle
// count far below the analytic lower bound — a broken simulator the
// drift alert must catch.
type driftMachine struct{ name string }

func (m driftMachine) Name() string        { return m.name }
func (m driftMachine) Params() core.Params { return core.Params{ClockMHz: 1} }
func (m driftMachine) Formulation(core.Workload) core.Formulation {
	return stubFormulation
}
func (m driftMachine) RunCornerTurn(cornerturn.Spec) (core.Result, error) {
	return core.Result{Machine: m.name, Kernel: core.CornerTurn, Cycles: 4242, Verified: true}, nil
}
func (m driftMachine) RunCSLC(cslc.Spec) (core.Result, error) {
	return core.Result{Machine: m.name, Kernel: core.CSLC, Cycles: 4242, Verified: true}, nil
}
func (m driftMachine) RunBeamSteering(beamsteer.Spec) (core.Result, error) {
	return core.Result{Machine: m.name, Kernel: core.BeamSteering, Cycles: 4242, Verified: true}, nil
}

// TestModelDriftAlert perturbs the simulator behind a real machine name
// and checks that completing a job fires the drift alert: 4242 cycles
// is far under the VIRAM corner-turn analytic bound, a result a correct
// simulator cannot produce.
func TestModelDriftAlert(t *testing.T) {
	s := NewService(Options{
		Pool:    PoolOptions{Workers: 2, JobTimeout: time.Minute},
		Factory: func(name string) (core.Machine, error) { return driftMachine{name: name}, nil },
	})
	job, err := s.Submit(JobSpec{Machine: "VIRAM", Kernel: core.CornerTurn})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(t.Context(), job.ID); err != nil {
		t.Fatal(err)
	}
	s.Close() // drain the completion goroutine that records drift
	if snap := s.Metrics().Snapshot(); snap.ModelDrift != 1 {
		t.Fatalf("snapshot drift = %d, want 1", snap.ModelDrift)
	}
	var buf bytes.Buffer
	if err := s.Metrics().Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`simserved_cell_model_drift_total{machine="VIRAM",kernel="corner-turn"} 1`,
		`simserved_cell_model_error_ratio{machine="VIRAM",kernel="corner-turn"} `,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestNoDriftOnHealthySimulator is the control: the real VIRAM
// simulator lands inside its envelope, so completing the same job fires
// nothing and the published ratio is the known Table 4 value (~1.5).
func TestNoDriftOnHealthySimulator(t *testing.T) {
	s := NewService(Options{Pool: PoolOptions{Workers: 2, JobTimeout: time.Minute}})
	job, err := s.Submit(JobSpec{Machine: "VIRAM", Kernel: core.CornerTurn})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(t.Context(), job.ID); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if got := s.Metrics().Snapshot().ModelDrift; got != 0 {
		t.Fatalf("healthy simulator fired %d drift alerts", got)
	}
	var buf bytes.Buffer
	if err := s.Metrics().Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `simserved_cell_model_error_ratio{machine="VIRAM",kernel="corner-turn"} 1.5`) {
		t.Errorf("healthy ratio gauge not exposed:\n%s",
			grepLines(buf.String(), "model_error_ratio"))
	}
}

// grepLines returns the lines of s containing substr, for test
// diagnostics.
func grepLines(s, substr string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
