package svc

import (
	"encoding/json"
	"sort"
	"time"

	"sigkern/internal/core"
	"sigkern/internal/journal"
	"sigkern/internal/obs"
)

// sortedMemoKeys returns the memo map's keys in sorted order so
// seeding (and its conflict accounting) is deterministic run to run.
func sortedMemoKeys(m map[string]core.Result) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// foldState is the pure half of journal replay: a job registry
// reconstructed from recovered journal state with no live service
// behind it, by the same apply the live service runs. Startup recovery
// folds a journal.Open recovery and adopts the result; cluster
// rebalance folds a departed shard's exported log (journal.Export) and
// ships the jobs to its hash-ring successor instead.
type foldState struct {
	registry
	// memo accumulates terminal cycle counts keyed by canonical spec
	// hash, with the same first-writer-wins determinism guard the pool
	// memo applies; memoOrder keeps seeding deterministic.
	memo      map[string]core.Result
	memoOrder []string
	stats     ReplayStats
}

// foldRecovery folds a journal recovery — snapshot first, then the log
// records appended after it — into a standalone registry. It never
// fails: bad records are counted and skipped, conflicting results are
// refused and counted.
func foldRecovery(rec *journal.Recovery) *foldState {
	f := &foldState{
		registry: newRegistry(),
		memo:     make(map[string]core.Result),
		stats: ReplayStats{
			SnapshotLoaded:  rec.Stats.SnapshotLoaded,
			SnapshotCorrupt: rec.Stats.SnapshotCorrupt,
			SegmentsRead:    rec.Stats.SegmentsRead,
			Truncations:     rec.Stats.Truncations,
			TruncatedBytes:  rec.Stats.TruncatedBytes,
		},
	}
	if rec.Snapshot != nil {
		var snap serviceSnapshot
		if err := json.Unmarshal(rec.Snapshot, &snap); err != nil {
			f.stats.SnapshotLoaded = false
			f.stats.SnapshotCorrupt = true
		} else {
			f.seq = snap.Seq
			for i := range snap.Jobs {
				f.add(&snap.Jobs[i])
				f.stats.JobsRestored++
			}
			for _, id := range snap.Evicted {
				f.remember(id)
			}
			for _, k := range sortedMemoKeys(snap.Memo) {
				f.seedMemo(k, snap.Memo[k])
			}
		}
	}
	for _, raw := range rec.Records {
		var ev jobEvent
		if err := json.Unmarshal(raw, &ev); err != nil {
			f.stats.BadRecords++
			continue
		}
		f.stats.RecordsApplied++
		// Seed the memo even when the job itself is unknown (its
		// acceptance may sit behind a truncated frame): the cycle count
		// is still good and still saves a re-simulation.
		if ev.Type == eventDone && ev.Result != nil && ev.Hash != "" {
			f.seedMemo(ev.Hash, *ev.Result)
		}
		added, bad := f.apply(ev)
		f.stats.JobsRestored += added
		f.stats.BadRecords += bad
	}
	return f
}

// seedMemo folds one terminal result into the memo under the
// determinism guard: a hash already bound to a different cycle count
// is corruption, counted and refused — first writer wins, never a
// wrong number.
func (f *foldState) seedMemo(hash string, r core.Result) {
	if prev, ok := f.memo[hash]; ok {
		if prev.Cycles != r.Cycles {
			f.stats.Conflicts++
			return
		}
	} else {
		f.memoOrder = append(f.memoOrder, hash)
	}
	f.memo[hash] = r
	f.stats.ResultsRestored++
}

// RecoverJobs folds an exported journal recovery (journal.Export) into
// the jobs and memoized results it describes, with no live service:
// the gateway-side half of cluster rebalance. Jobs come back in
// submission order with their lifecycle traces; memo maps canonical
// spec hash -> cycle count for every terminal result in the log,
// including results whose job was since evicted. Stats carries the
// same accounting a startup replay of the log would report.
func RecoverJobs(rec *journal.Recovery) ([]Job, map[string]core.Result, ReplayStats) {
	f := foldRecovery(rec)
	jobs := make([]Job, 0, len(f.order))
	for _, id := range f.order {
		jobs = append(jobs, f.jobs[id].clone(true))
	}
	memo := make(map[string]core.Result, len(f.memo))
	for k, v := range f.memo {
		memo[k] = v
	}
	return jobs, memo, f.stats
}

// IngestStats describes what one IngestJobs call folded in.
type IngestStats struct {
	// JobsIngested jobs entered the registry under their original IDs;
	// Requeued of those were non-terminal and are running again here.
	JobsIngested int `json:"jobs_ingested"`
	Requeued     int `json:"requeued"`
	// ResultsSeeded terminal cycle counts from the memo argument joined
	// this shard's memo table.
	ResultsSeeded int `json:"results_seeded"`
	// Duplicates were already present (same job ID, an evicted ID, or a
	// live job under the same idempotency key) — the usual case when a
	// rerouted client already resubmitted the work here.
	Duplicates int `json:"duplicates,omitempty"`
	// Conflicts are results that disagreed with an already-seeded cycle
	// count for the same spec hash: corruption surfaced by the
	// determinism guard. The conflicting import is refused, never
	// served.
	Conflicts int `json:"conflicts,omitempty"`
	// Rejected jobs were malformed (empty ID, invalid spec, a hash the
	// spec does not produce, terminal without a result) or carried a
	// conflicting result.
	Rejected int `json:"rejected,omitempty"`
}

// IngestJobs folds jobs and memoized results recovered from another
// shard's journal (RecoverJobs) into this service: the receiving half
// of cluster rebalance. Jobs keep their original IDs, idempotency
// keys, traces and times, so a client polling a rebalanced job ID — or
// blindly resubmitting its key — finds the original work here. Each
// job's spec hash is recomputed from its normalized spec, and a job
// whose payload names a different hash is rejected: the hash is the
// memo key, and a payload's word for it would let one spec's result
// answer another's. Terminal jobs are adopted as-is and their results
// seeded into the memo under the determinism guard; non-terminal jobs
// are relaunched. The ingest is journaled to this shard's own log —
// one batch_accepted record plus the terminal transitions, synced —
// before the call returns, so a subsequent crash here does not lose
// the handoff. On a journal failure (ErrDurability) the rebalance must
// be driven again; whatever already landed dedups as Duplicates on the
// retry.
func (s *Service) IngestJobs(jobs []Job, memo map[string]core.Result) (IngestStats, error) {
	var st IngestStats
	for _, k := range sortedMemoKeys(memo) {
		if s.pool.SeedMemo(k, memo[k]) {
			st.ResultsSeeded++
		} else {
			st.Conflicts++
		}
	}

	s.mu.Lock()
	var in, rq []*Job
	seen := make(map[string]bool)
	for i := range jobs {
		j := jobs[i]
		norm, hash, err := normalizeAt(i, j.Spec)
		if j.ID == "" || err != nil || (j.Hash != "" && j.Hash != hash) {
			st.Rejected++
			continue
		}
		if _, live := s.jobs[j.ID]; live || s.evicted[j.ID] || seen[j.ID] {
			st.Duplicates++
			continue
		}
		if _, live := s.jobs[s.idem[j.IdemKey]]; live && j.IdemKey != "" {
			// The key is already bound to live work here — a rerouted
			// client got there first. That job answers.
			st.Duplicates++
			continue
		}
		cp := j
		cp.Spec, cp.Hash = norm, hash
		cp.Trace = append([]obs.Event(nil), j.Trace...)
		switch {
		case cp.State == Done:
			if cp.Result == nil {
				st.Rejected++
				continue
			}
			// The determinism guard arbitrates imports too: a result that
			// disagrees with this shard's memo for the same hash is
			// refused outright rather than registered and served.
			if !s.pool.SeedMemo(cp.Hash, *cp.Result) {
				st.Conflicts++
				st.Rejected++
				continue
			}
		case cp.State == Failed:
			// Adopted as-is: the failure already happened and was
			// already reported; re-running it here would duplicate work
			// the origin shard completed.
		default:
			cp.requeue("rebalance ingest")
			rq = append(rq, &cp)
		}
		seen[cp.ID] = true
		in = append(in, &cp)
	}
	// Journaled first, as one batch_accepted record: if it cannot be,
	// nothing is adopted. Then each job is added whole, a finished one
	// after its terminal record.
	now := time.Now()
	if len(in) > 0 {
		ev := jobEvent{Type: eventBatch, Seq: s.seq, Time: now}
		for _, j := range in {
			ev.Batch = append(ev.Batch, batchMember{ID: j.ID, Hash: j.Hash, Spec: j.Spec, IdemKey: j.IdemKey, Priority: j.Priority})
		}
		if err := s.journalLocked(ev, true); err != nil {
			s.mu.Unlock()
			return st, err
		}
	}
	for _, j := range in {
		// A failed deferred append is counted, like any transition's;
		// the sync below reports a journal that cannot persist.
		switch j.State {
		case Done:
			_ = s.journalLocked(jobEvent{Type: eventDone, ID: j.ID, Hash: j.Hash, Result: j.Result, FromCache: j.FromCache, Time: now}, false)
		case Failed:
			_ = s.journalLocked(jobEvent{Type: eventFailed, ID: j.ID, Error: j.Error, Time: now}, false)
		}
		s.add(j)
	}
	s.evictLocked()
	s.mu.Unlock()
	st.JobsIngested = len(in)
	if err := s.syncJournal(); err != nil {
		return st, err
	}
	st.Requeued = s.relaunch(rq)
	return st, nil
}
