package svc

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sigkern/internal/core"
	"sigkern/internal/journal"
)

func durableOpts() Options {
	return Options{Pool: PoolOptions{Workers: 4, JobTimeout: time.Minute}}
}

func openDurable(t *testing.T, dir string, opts Options) *Service {
	t.Helper()
	s, err := OpenDurable(opts, journal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// crash abandons a durable service the way SIGKILL would: the pool
// stops but the journal is neither snapshotted nor closed, so the
// next open must recover from the raw log.
func crash(s *Service) {
	s.pool.Close()
	s.wg.Wait()
}

// TestDurableCrashReplayRestoresResults kills a durable service after
// jobs finish and reopens its journal: the terminal jobs come back
// under their original IDs with bit-identical cycle counts, the memo
// table is re-seeded, and an idempotent resubmit finds the original
// job instead of doing the work again.
func TestDurableCrashReplayRestoresResults(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, dir, durableOpts())
	w := smallWorkload()
	specA := JobSpec{Machine: "AltiVec", Kernel: core.BeamSteering, Workload: &w}
	specB := JobSpec{Machine: "PPC", Kernel: core.CornerTurn, Workload: &w}

	jobA, err := s.Submit(specA)
	if err != nil {
		t.Fatal(err)
	}
	jobB, err := s.Submit(specB)
	if err != nil {
		t.Fatal(err)
	}
	doneA, err := s.Wait(context.Background(), jobA.ID)
	if err != nil {
		t.Fatal(err)
	}
	doneB, err := s.Wait(context.Background(), jobB.ID)
	if err != nil {
		t.Fatal(err)
	}
	crash(s)

	s2 := openDurable(t, dir, durableOpts())
	defer s2.Close()
	st := s2.ReplayStats()
	if st.JobsRestored != 2 || st.ResultsRestored < 2 {
		t.Fatalf("replay stats: %+v", st)
	}
	for _, want := range []Job{doneA, doneB} {
		got, ok := s2.Job(want.ID)
		if !ok {
			t.Fatalf("job %s lost in the crash", want.ID)
		}
		if got.State != Done || got.Result == nil || got.Result.Cycles != want.Result.Cycles {
			t.Fatalf("job %s replayed as %+v, want cycles %d", want.ID, got, want.Result.Cycles)
		}
	}

	// A blind retry of the same spec (no explicit key) finds the
	// original job: on a durable service the spec hash is the key.
	replay, replayed, err := s2.Admit(specA, "", BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !replayed || replay.ID != jobA.ID {
		t.Fatalf("resubmit got %s (replayed=%v), want original %s", replay.ID, replayed, jobA.ID)
	}
	// A genuinely new job for the same spec is served from the
	// restored memo table without re-simulating.
	fresh, replayed, err := s2.Admit(specA, "fresh-key", BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if replayed || fresh.ID == jobA.ID {
		t.Fatalf("explicit new key replayed old job: %+v", fresh)
	}
	final, err := s2.Wait(context.Background(), fresh.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !final.FromCache || final.Result.Cycles != doneA.Result.Cycles {
		t.Fatalf("restored memo not used: %+v", final)
	}
}

// TestDurableCrashRequeuesUnfinishedJobs crashes while a job is still
// executing: the journal holds its acceptance but no terminal state,
// so the restarted service runs it again to completion.
func TestDurableCrashRequeuesUnfinishedJobs(t *testing.T) {
	dir := t.TempDir()
	factory, release := blockingFactory()
	opts := durableOpts()
	opts.Factory = factory
	s := openDurable(t, dir, opts)

	w := smallWorkload()
	spec := JobSpec{Machine: "AltiVec", Kernel: core.BeamSteering, Workload: &w}
	job, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, s, job.ID, Running)
	crash(s)
	release()

	s2 := openDurable(t, dir, durableOpts())
	defer s2.Close()
	if st := s2.ReplayStats(); st.Requeued != 1 {
		t.Fatalf("replay stats: %+v", st)
	}
	final, err := s2.Wait(context.Background(), job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != Done || final.Result == nil {
		t.Fatalf("requeued job: %+v", final)
	}
	// Determinism: the re-execution must match a fresh run of the spec.
	ref, _, err := s2.Admit(spec, "ref", BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	refFinal, err := s2.Wait(context.Background(), ref.ID)
	if err != nil {
		t.Fatal(err)
	}
	if refFinal.Result.Cycles != final.Result.Cycles {
		t.Fatalf("requeued run %d cycles, reference %d", final.Result.Cycles, refFinal.Result.Cycles)
	}
}

// TestDurableDrainSnapshotsAndCompacts closes a durable service
// cleanly: the journal compacts into a snapshot, and a restart
// restores from the snapshot with zero log records to replay.
func TestDurableDrainSnapshotsAndCompacts(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, dir, durableOpts())
	w := smallWorkload()
	job, err := s.Submit(JobSpec{Machine: "PPC", Kernel: core.BeamSteering, Workload: &w})
	if err != nil {
		t.Fatal(err)
	}
	done, err := s.Wait(context.Background(), job.ID)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := openDurable(t, dir, durableOpts())
	defer s2.Close()
	st := s2.ReplayStats()
	if !st.SnapshotLoaded || st.RecordsApplied != 0 || st.JobsRestored != 1 || st.ResultsRestored < 1 {
		t.Fatalf("post-drain replay: %+v", st)
	}
	got, ok := s2.Job(job.ID)
	if !ok || got.State != Done || got.Result.Cycles != done.Result.Cycles {
		t.Fatalf("snapshot restore: %+v", got)
	}
}

// TestDurableDrainRequeuesInterrupted drains while a job is mid-
// flight: the shutdown fails it in memory (ErrPoolClosed), but the
// snapshot persists it as still queued, so the next process finishes
// it — a deploy restart never turns accepted work into an error.
func TestDurableDrainRequeuesInterrupted(t *testing.T) {
	dir := t.TempDir()
	factory, release := blockingFactory()
	opts := durableOpts()
	opts.Factory = factory
	s := openDurable(t, dir, opts)

	w := smallWorkload()
	job, err := s.Submit(JobSpec{Machine: "AltiVec", Kernel: core.CornerTurn, Workload: &w})
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, s, job.ID, Running)
	s.Close() // graceful drain: snapshot + compact
	release()

	s2 := openDurable(t, dir, durableOpts())
	defer s2.Close()
	st := s2.ReplayStats()
	if !st.SnapshotLoaded || st.Requeued != 1 {
		t.Fatalf("drain-interrupted replay: %+v", st)
	}
	final, err := s2.Wait(context.Background(), job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != Done || final.Result == nil {
		t.Fatalf("interrupted job after restart: %+v", final)
	}
}

// TestDurableTornTailRecovery appends garbage to the live segment —
// the on-disk shape of a crash mid-write: recovery truncates at the
// first bad frame, counts it, and every completed record still
// replays.
func TestDurableTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, dir, durableOpts())
	w := smallWorkload()
	job, err := s.Submit(JobSpec{Machine: "PPC", Kernel: core.CornerTurn, Workload: &w})
	if err != nil {
		t.Fatal(err)
	}
	done, err := s.Wait(context.Background(), job.ID)
	if err != nil {
		t.Fatal(err)
	}
	crash(s)

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v %v", segs, err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xDE, 0xAD, 0xBE}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := openDurable(t, dir, durableOpts())
	defer s2.Close()
	st := s2.ReplayStats()
	if st.Truncations != 1 || st.JobsRestored != 1 {
		t.Fatalf("torn-tail replay: %+v", st)
	}
	got, ok := s2.Job(job.ID)
	if !ok || got.Result == nil || got.Result.Cycles != done.Result.Cycles {
		t.Fatalf("torn tail lost completed work: %+v", got)
	}
	// The loss is surfaced on the health endpoint, not hidden.
	h := s2.Healthz()
	if h.Journal == nil || h.Journal.Replay.Truncations != 1 {
		t.Fatalf("healthz hides the truncation: %+v", h.Journal)
	}
}

// TestDurableEvictionSurvivesCrash: jobs evicted before the crash
// stay evicted after it (Wait says gone, not unknown), and the
// registry bound holds.
func TestDurableEvictionSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	opts := durableOpts()
	opts.MaxJobs = 2
	s := openDurable(t, dir, opts)
	w := smallWorkload()
	var ids []string
	for _, spec := range []JobSpec{
		{Machine: "PPC", Kernel: core.CornerTurn, Workload: &w},
		{Machine: "AltiVec", Kernel: core.CornerTurn, Workload: &w},
		{Machine: "PPC", Kernel: core.BeamSteering, Workload: &w},
	} {
		job, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Wait(context.Background(), job.ID); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, job.ID)
	}
	if !s.wasEvicted(ids[0]) {
		t.Fatalf("oldest job not evicted at MaxJobs=2")
	}
	crash(s)

	s2 := openDurable(t, dir, opts)
	defer s2.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := s2.Wait(ctx, ids[0]); !errors.Is(err, ErrJobEvicted) {
		t.Fatalf("evicted job after restart: %v", err)
	}
	for _, id := range ids[1:] {
		if got, ok := s2.Job(id); !ok || got.State != Done {
			t.Fatalf("live job %s after restart: %+v ok=%v", id, got, ok)
		}
	}
}

// TestIdempotencyKeys covers the dedup matrix: explicit keys dedup on
// any service; the spec-hash fallback dedups only on a durable one,
// preserving one-job-per-submit for batch drivers without a journal.
func TestIdempotencyKeys(t *testing.T) {
	w := smallWorkload()
	spec := JobSpec{Machine: "AltiVec", Kernel: core.BeamSteering, Workload: &w}

	t.Run("explicit key dedups everywhere", func(t *testing.T) {
		s := NewService(durableOpts())
		defer s.Close()
		first, replayed, err := s.Admit(spec, "k1", BatchOptions{})
		if err != nil || replayed {
			t.Fatalf("first admit: %v replayed=%v", err, replayed)
		}
		second, replayed, err := s.Admit(spec, "k1", BatchOptions{})
		if err != nil || !replayed || second.ID != first.ID {
			t.Fatalf("second admit: %v replayed=%v id=%s want %s", err, replayed, second.ID, first.ID)
		}
	})
	t.Run("no key no journal no dedup", func(t *testing.T) {
		s := NewService(durableOpts())
		defer s.Close()
		first, _, err := s.Admit(spec, "", BatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		second, replayed, err := s.Admit(spec, "", BatchOptions{})
		if err != nil || replayed || second.ID == first.ID {
			t.Fatalf("memory-only service deduped: %v replayed=%v", err, replayed)
		}
	})
	t.Run("durable falls back to spec hash", func(t *testing.T) {
		s := openDurable(t, t.TempDir(), durableOpts())
		defer s.Close()
		first, _, err := s.Admit(spec, "", BatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		second, replayed, err := s.Admit(spec, "", BatchOptions{})
		if err != nil || !replayed || second.ID != first.ID {
			t.Fatalf("durable spec-hash dedup: %v replayed=%v id=%s want %s", err, replayed, second.ID, first.ID)
		}
	})
}
