package svc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sigkern/internal/core"
	"sigkern/internal/obs"
	"sigkern/internal/resilience"
)

func postJobRaw(t *testing.T, url string, spec JobSpec, hdr map[string]string) *http.Response {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// decodeParamError asserts a 400 with a structured ParamError naming
// the parameter.
func decodeParamError(t *testing.T, resp *http.Response, param string) ParamError {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var pe ParamError
	if err := json.NewDecoder(resp.Body).Decode(&pe); err != nil {
		t.Fatal(err)
	}
	if pe.Parameter != param {
		t.Fatalf("ParamError names %q, want %q", pe.Parameter, param)
	}
	if pe.Error == "" || len(pe.Want) == 0 {
		t.Fatalf("ParamError missing message or accepted values: %+v", pe)
	}
	return pe
}

// TestTimeoutParamError is the satellite regression: a bad ?timeout=
// must answer the same structured 400 body every other rejected
// parameter gets, not a bare message.
func TestTimeoutParamError(t *testing.T) {
	_, srv := newTestServer(t)
	spec := JobSpec{Machine: "VIRAM", Kernel: core.CornerTurn}

	resp := postJobRaw(t, srv.URL+"/v1/jobs?timeout=bogus", spec, nil)
	pe := decodeParamError(t, resp, "timeout")
	if pe.Value != "bogus" {
		t.Fatalf("ParamError value %q, want the offending input", pe.Value)
	}

	resp = postJobRaw(t, srv.URL+"/v1/jobs?timeout=-5s", spec, nil)
	decodeParamError(t, resp, "timeout")
}

func TestPriorityParamError(t *testing.T) {
	_, srv := newTestServer(t)
	resp := postJobRaw(t, srv.URL+"/v1/jobs?priority=urgent", JobSpec{Machine: "VIRAM", Kernel: core.CornerTurn}, nil)
	pe := decodeParamError(t, resp, "priority")
	if len(pe.Want) != 2 || pe.Want[0] != "batch" || pe.Want[1] != "interactive" {
		t.Fatalf("ParamError offers %v, want [batch interactive]", pe.Want)
	}
}

func TestBudgetHeaderValidation(t *testing.T) {
	_, srv := newTestServer(t)
	resp := postJobRaw(t, srv.URL+"/v1/jobs", JobSpec{Machine: "VIRAM", Kernel: core.CornerTurn},
		map[string]string{"X-Deadline-Budget": "soon"})
	decodeParamError(t, resp, "X-Deadline-Budget")
}

// TestPoolPriorityAdmission pins the two-level queue's contract: with
// one gated worker, queued interactive tasks all run before any queued
// batch task, regardless of submission order.
func TestPoolPriorityAdmission(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 1, QueueDepth: 16, MemoCapacity: -1})
	defer p.Close()

	gate := make(chan struct{})
	gateFut, err := submitOne(p, funcTask(Task{Label: "gate"}, func(ctx context.Context) (core.Result, error) {
		<-gate
		return core.Result{}, nil
	}))
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var order []string
	mk := func(label string, pr Priority) Task {
		return funcTask(Task{Label: label, Priority: pr}, func(context.Context) (core.Result, error) {
			mu.Lock()
			order = append(order, label)
			mu.Unlock()
			return core.Result{}, nil
		})
	}
	// Batch submitted FIRST: strict priority, not FIFO, must decide.
	var futs []*Future
	for i := 0; i < 3; i++ {
		f, err := submitOne(p, mk(fmt.Sprintf("batch-%d", i), PriorityBatch))
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	for i := 0; i < 3; i++ {
		f, err := submitOne(p, mk(fmt.Sprintf("inter-%d", i), PriorityInteractive))
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	close(gate)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := gateFut.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	for _, f := range futs {
		if _, err := f.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 6 {
		t.Fatalf("ran %d tasks, want 6", len(order))
	}
	for i, label := range order[:3] {
		if label[:5] != "inter" {
			t.Fatalf("position %d ran %q: batch overtook queued interactive work (order %v)", i, label, order)
		}
	}
}

// TestBatchShedsBeforeInteractive: once the interactive queue is 3/4
// full, non-blocking batch admissions shed immediately — the batch
// queue's own headroom must not keep absorbing work that would starve
// the next interactive burst.
func TestBatchShedsBeforeInteractive(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 1, QueueDepth: 4, MemoCapacity: -1})
	defer p.Close()

	gate := make(chan struct{})
	defer close(gate)
	running := make(chan struct{})
	if _, err := submitOne(p, funcTask(Task{Label: "gate"}, func(ctx context.Context) (core.Result, error) {
		close(running)
		<-gate
		return core.Result{}, nil
	})); err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to pick the gate up so it no longer occupies
	// a queue slot, then fill the interactive queue to exactly 3/4.
	<-running
	for i := 0; i < 3; i++ {
		if _, err := submitOne(p, funcTask(Task{Label: "fill"}, func(context.Context) (core.Result, error) {
			return core.Result{}, nil
		})); err != nil {
			t.Fatal(err)
		}
	}
	_, err := trySubmitOne(p, funcTask(Task{Label: "late-batch", Priority: PriorityBatch},
		func(context.Context) (core.Result, error) { return core.Result{}, nil }))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("batch admission at 3/4 interactive occupancy: err = %v, want ErrOverloaded", err)
	}
	snap := p.Metrics().Snapshot()
	if snap.ShedBatch != 1 {
		t.Fatalf("jobs_shed_batch = %d, want 1", snap.ShedBatch)
	}
	// Interactive still has the last slot.
	if _, err := trySubmitOne(p, funcTask(Task{Label: "late-inter"},
		func(context.Context) (core.Result, error) { return core.Result{}, nil })); err != nil {
		t.Fatalf("interactive admission with one slot left: %v", err)
	}
}

// seedExecWindow plants synthetic executed-job latencies so the cached
// p99 reads as roughly lat.
func seedExecWindow(m *Metrics, lat time.Duration, n int) {
	cell := obs.Labels{Machine: "VIRAM", Kernel: string(core.CornerTurn)}
	for i := 0; i < n; i++ {
		m.running.Add(1)
		m.jobFinished(cell, true, true, false, false, lat)
	}
	m.invalidateExecQuantiles()
}

// TestBudgetFastReject: when the remaining budget cannot cover even
// one executed-job p99, admission fails fast with ErrBudgetExhausted
// instead of queueing a job that is already dead.
func TestBudgetFastReject(t *testing.T) {
	s := NewService(Options{Pool: PoolOptions{Workers: 1, QueueDepth: 8, MemoCapacity: -1}})
	defer s.Close()
	seedExecWindow(s.Metrics(), 10*time.Second, 32)

	_, _, err := s.Admit(JobSpec{Machine: "VIRAM", Kernel: core.CornerTurn}, "", BatchOptions{Budget: time.Second})
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("admit with 1s budget against a 10s p99: err = %v, want ErrBudgetExhausted", err)
	}
	if got := s.Metrics().Snapshot().BudgetRejected; got != 1 {
		t.Fatalf("budget_rejected = %d, want 1", got)
	}
	// A generous budget admits.
	job, _, err := s.Admit(JobSpec{Machine: "VIRAM", Kernel: core.CornerTurn}, "", BatchOptions{Budget: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := s.Wait(ctx, job.ID); err != nil {
		t.Fatal(err)
	}
}

// TestBudgetFastRejectSparesMemoHits: a memoized spec is answered in
// microseconds no matter how deep the queue is, so the fast-reject
// must not bounce it.
func TestBudgetFastRejectSparesMemoHits(t *testing.T) {
	s := NewService(Options{Pool: PoolOptions{Workers: 1, QueueDepth: 8}})
	defer s.Close()

	// Run the spec once so the memo holds it.
	job, _, err := s.Admit(JobSpec{Machine: "VIRAM", Kernel: core.CornerTurn}, "", BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := s.Wait(ctx, job.ID); err != nil {
		t.Fatal(err)
	}

	seedExecWindow(s.Metrics(), 10*time.Second, 32)
	if _, _, err := s.Admit(JobSpec{Machine: "VIRAM", Kernel: core.CornerTurn}, "",
		BatchOptions{Budget: time.Millisecond}); err != nil {
		t.Fatalf("memoized spec bounced by budget fast-reject: %v", err)
	}
}

// TestExpiredJobNeverExecutes: a queued job whose deadline budget runs
// out before a worker picks it up is dropped at pickup — its Run must
// never fire, and the drop is counted.
func TestExpiredJobNeverExecutes(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 1, QueueDepth: 8, MemoCapacity: -1})
	defer p.Close()

	gate := make(chan struct{})
	gateFut, err := submitOne(p, funcTask(Task{Label: "gate"}, func(ctx context.Context) (core.Result, error) {
		<-gate
		return core.Result{}, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Bool
	doomed, err := submitOne(p, funcTask(Task{Label: "doomed", Expires: time.Now().Add(50 * time.Millisecond)}, func(context.Context) (core.Result, error) {
		ran.Store(true)
		return core.Result{}, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	// Hold the worker until the budget is long gone.
	time.Sleep(150 * time.Millisecond)
	close(gate)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := gateFut.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	_, werr := doomed.Wait(ctx)
	if !errors.Is(werr, ErrBudgetExhausted) {
		t.Fatalf("expired job: err = %v, want ErrBudgetExhausted", werr)
	}
	if ran.Load() {
		t.Fatal("expired job's Run fired: it burned a worker slot")
	}
	if got := p.Metrics().Snapshot().ExpiredDropped; got != 1 {
		t.Fatalf("expired_jobs_dropped = %d, want 1", got)
	}
}

// TestBrownoutFlapNoMixedTiers hammers ?tier=auto while another
// goroutine flips the brownout controller as fast as it can. Run under
// -race by `make overload-soak`. The invariant: every response is
// internally consistent — a degraded body means estimate tier AND the
// X-Degraded header, a simulate body means neither. A response
// assembled from two controller reads would violate the pairing.
func TestBrownoutFlapNoMixedTiers(t *testing.T) {
	s := NewService(Options{
		Pool:     PoolOptions{Workers: 4, JobTimeout: time.Minute, MemoCapacity: -1},
		Brownout: resilience.BrownoutConfig{MinHold: time.Nanosecond},
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	defer s.Close()

	stop := make(chan struct{})
	var flapper sync.WaitGroup
	flapper.Add(1)
	go func() {
		defer flapper.Done()
		full := resilience.BrownoutInputs{QueueDepth: 8, QueueCap: 8}
		empty := resilience.BrownoutInputs{QueueDepth: 0, QueueCap: 8}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			in := empty
			if i%2 == 0 {
				in = full
			}
			s.brownout.Observe(in)
		}
	}()

	spec := JobSpec{Machine: "VIRAM", Kernel: core.CornerTurn}
	var wg sync.WaitGroup
	var violations atomic.Int64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				resp := postJobRaw(t, srv.URL+"/v1/jobs?tier=auto&wait=1&timeout=30s", spec, nil)
				var job Job
				err := json.NewDecoder(resp.Body).Decode(&job)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					violations.Add(1)
					continue
				}
				headerDegraded := resp.Header.Get("X-Degraded") == "brownout"
				switch {
				case job.Degraded != headerDegraded:
					violations.Add(1)
				case job.Degraded && job.Tier != TierEstimate:
					violations.Add(1)
				case !job.Degraded && job.Tier != TierSimulate && job.Tier != "":
					violations.Add(1)
				case job.Tier == TierAuto:
					violations.Add(1) // auto must never survive resolution
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	flapper.Wait()
	if n := violations.Load(); n != 0 {
		t.Fatalf("%d responses mixed tiers or mislabeled degradation", n)
	}
}
