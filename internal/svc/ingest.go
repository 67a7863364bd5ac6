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
// behind it. Startup recovery folds a journal.Open recovery and adopts
// the result; cluster rebalance folds a departed shard's exported log
// (journal.Export) and ships the jobs to its hash-ring successor
// instead.
type foldState struct {
	seq          uint64
	jobs         map[string]*Job
	order        []string
	evicted      map[string]bool
	evictedOrder []string
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
		jobs:    make(map[string]*Job),
		evicted: make(map[string]bool),
		memo:    make(map[string]core.Result),
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
				cp := snap.Jobs[i]
				f.jobs[cp.ID] = &cp
				f.order = append(f.order, cp.ID)
				f.stats.JobsRestored++
			}
			for _, id := range snap.Evicted {
				f.evicted[id] = true
				f.evictedOrder = append(f.evictedOrder, id)
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
		f.apply(ev)
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

// apply folds one log record into the registry.
func (f *foldState) apply(ev jobEvent) {
	f.stats.RecordsApplied++
	switch ev.Type {
	case eventAccepted:
		// A journal written before every admission became a
		// batch_accepted record: one job per record.
		if ev.ID == "" || ev.Spec == nil {
			f.stats.BadRecords++
			return
		}
		f.accept(ev, batchMember{ID: ev.ID, Hash: ev.Hash, Spec: *ev.Spec, IdemKey: ev.IdemKey})
	case eventBatch:
		// One frame restores every member of an admission under its
		// original ID; the rest of the log — started/done/failed events
		// for members — applies unchanged.
		if len(ev.Batch) == 0 {
			f.stats.BadRecords++
			return
		}
		f.accept(ev, ev.Batch...)
	case eventStarted:
		if j, ok := f.jobs[ev.ID]; ok && !j.State.Terminal() {
			j.State = Running
			j.Started = ev.Time
			j.Trace = append(j.Trace, obs.Event{Name: obs.EventStarted, Time: ev.Time})
		}
	case eventDone:
		if ev.Result == nil {
			f.stats.BadRecords++
			return
		}
		// Seed the memo even when the job itself is unknown (its
		// acceptance may sit behind a truncated frame): the cycle
		// count is still good and still saves a re-simulation.
		if ev.Hash != "" {
			f.seedMemo(ev.Hash, *ev.Result)
		}
		if j, ok := f.jobs[ev.ID]; ok && !j.State.Terminal() {
			j.State = Done
			j.Result = ev.Result
			j.FromCache = ev.FromCache
			j.Finished = ev.Time
			note := ""
			if ev.FromCache {
				note = "cache hit"
			}
			j.Trace = append(j.Trace, obs.Event{Name: obs.EventDone, Time: ev.Time, Note: note})
		}
	case eventFailed:
		if j, ok := f.jobs[ev.ID]; ok && !j.State.Terminal() {
			j.State = Failed
			j.Error = ev.Error
			j.Finished = ev.Time
			j.Trace = append(j.Trace, obs.Event{Name: obs.EventFailed, Time: ev.Time, Note: ev.Error})
		}
	case eventAborted:
		if _, ok := f.jobs[ev.ID]; ok {
			delete(f.jobs, ev.ID)
			f.removeFromOrder(ev.ID)
		}
	case eventEvicted:
		if _, ok := f.jobs[ev.ID]; ok {
			delete(f.jobs, ev.ID)
			f.removeFromOrder(ev.ID)
			f.evicted[ev.ID] = true
			f.evictedOrder = append(f.evictedOrder, ev.ID)
		}
	default:
		f.stats.BadRecords++
	}
}

// accept folds an acceptance record's members in as queued jobs. The
// record's Seq advances the ID counter once; a member already present
// (a duplicate append, e.g. replayed twice) keeps its first record.
// Log-record replay reconstructs the lifecycle trace from the
// journaled transitions: acceptance implies queueing, both were
// durable before anyone heard about the job.
func (f *foldState) accept(ev jobEvent, members ...batchMember) {
	if ev.Seq > f.seq {
		f.seq = ev.Seq
	}
	for _, m := range members {
		if m.ID == "" {
			f.stats.BadRecords++
			continue
		}
		if _, exists := f.jobs[m.ID]; exists {
			continue
		}
		f.jobs[m.ID] = &Job{
			ID:        m.ID,
			Spec:      m.Spec,
			Hash:      m.Hash,
			IdemKey:   m.IdemKey,
			State:     Queued,
			Submitted: ev.Time,
			Trace: []obs.Event{
				{Name: obs.EventAccepted, Time: ev.Time},
				{Name: obs.EventQueued, Time: ev.Time},
			},
		}
		f.order = append(f.order, m.ID)
		f.stats.JobsRestored++
	}
}

func (f *foldState) removeFromOrder(id string) {
	for i, jid := range f.order {
		if jid == id {
			f.order = append(f.order[:i], f.order[i+1:]...)
			return
		}
	}
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
	// Rejected jobs were malformed (empty ID, invalid spec, terminal
	// without a result) or carried a conflicting result.
	Rejected int `json:"rejected,omitempty"`
}

// IngestJobs folds jobs and memoized results recovered from another
// shard's journal (RecoverJobs) into this service: the receiving half
// of cluster rebalance. Jobs keep their original IDs and idempotency
// keys, so a client polling a rebalanced job ID — or blindly
// resubmitting its key — finds the original work here. Terminal jobs
// are registered as-is and their results seeded into the memo under
// the determinism guard; non-terminal jobs are relaunched. The ingest
// is journaled to this shard's own log — one batch_accepted record plus
// the terminal transitions, synced — before the call returns, so a
// subsequent crash here does not lose the handoff. On a journal
// failure (ErrDurability) the rebalance must be driven again; whatever
// already landed dedups as Duplicates on the retry.
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
		if j.ID == "" {
			st.Rejected++
			continue
		}
		norm, err := j.Spec.Normalize()
		if err != nil {
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
		cp.Spec = norm
		if cp.Hash == "" {
			if cp.Hash, err = norm.Hash(); err != nil {
				st.Rejected++
				continue
			}
		}
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
			// Registered as-is: the failure already happened and was
			// already reported; re-running it here would duplicate work
			// the origin shard completed.
		default:
			cp.State = Queued
			cp.Result = nil
			cp.FromCache = false
			cp.Error = ""
			cp.Started, cp.Finished = time.Time{}, time.Time{}
			cp.Trace = append(cp.Trace, obs.Event{Name: obs.EventRequeued, Time: time.Now(), Note: "rebalance ingest"})
			rq = append(rq, &cp)
		}
		seen[cp.ID] = true
		in = append(in, &cp)
	}
	if err := s.acceptLocked(in, s.seq); err != nil {
		s.mu.Unlock()
		return st, err
	}
	for _, j := range in {
		switch j.State {
		case Done:
			s.journalEventLocked(eventDone, j)
		case Failed:
			s.journalEventLocked(eventFailed, j)
		}
	}
	s.mu.Unlock()
	st.JobsIngested = len(in)
	if err := s.syncJournal(); err != nil {
		return st, err
	}
	st.Requeued = s.relaunch(rq)
	return st, nil
}
