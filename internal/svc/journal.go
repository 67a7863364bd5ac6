package svc

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"sigkern/internal/core"
	"sigkern/internal/journal"
	"sigkern/internal/obs"
)

// ErrDurability is returned by every admission when the service is
// durable but the journal cannot persist the acceptance: accepting
// work that would silently vanish in a crash defeats the point, so
// the work is refused (503 upstairs) instead.
var ErrDurability = errors.New("svc: durability journal unavailable")

// eventType names one journaled job lifecycle transition.
type eventType string

const (
	// eventAccepted is one job's acceptance as journals written before
	// every admission became a batch_accepted record stored it. It is
	// decoded on replay, never written.
	eventAccepted eventType = "accepted"
	eventStarted  eventType = "started"
	eventDone     eventType = "done"
	eventFailed   eventType = "failed"
	// eventAborted marks a job accepted and journaled but shed before
	// any work happened (saturated queue): replay must forget it, the
	// client was told 429.
	eventAborted eventType = "aborted"
	eventEvicted eventType = "evicted"
	// eventBatch records one admission — a batch group, or a single job
	// as its batch of one — in a single CRC32C frame: every member job's
	// identity, spec and idempotency key, plus the sequence counter after
	// the group. One record — and one fsync — covers the whole
	// admission, and replay restores every member under its original ID.
	eventBatch eventType = "batch_accepted"
)

// batchMember is one member job inside an eventBatch record.
type batchMember struct {
	ID      string  `json:"id"`
	Hash    string  `json:"hash"`
	Spec    JobSpec `json:"spec"`
	IdemKey string  `json:"idem,omitempty"`
}

// jobEvent is the JSON payload of one write-ahead-log record.
type jobEvent struct {
	Type eventType `json:"type"`
	ID   string    `json:"id"`
	// Seq is the service's ID counter at acceptance, so a restart
	// never reissues a live job ID.
	Seq uint64 `json:"seq,omitempty"`
	// IdemKey, Hash and Spec describe an eventAccepted job.
	IdemKey   string       `json:"idem,omitempty"`
	Hash      string       `json:"hash,omitempty"`
	Spec      *JobSpec     `json:"spec,omitempty"`
	Result    *core.Result `json:"result,omitempty"`
	FromCache bool         `json:"from_cache,omitempty"`
	Error     string       `json:"error,omitempty"`
	// Batch carries an eventBatch record's member jobs.
	Batch []batchMember `json:"batch,omitempty"`
	Time  time.Time     `json:"time"`
}

// serviceSnapshot is the compaction baseline serialized into the
// journal's snapshot file: the registry in submission order, the
// bounded eviction memory, and the memo table, at one instant.
type serviceSnapshot struct {
	Seq     uint64                 `json:"seq"`
	Jobs    []Job                  `json:"jobs"`
	Evicted []string               `json:"evicted,omitempty"`
	Memo    map[string]core.Result `json:"memo,omitempty"`
}

// ReplayStats describes what a durable service restored at startup.
type ReplayStats struct {
	SnapshotLoaded bool `json:"snapshot_loaded"`
	// SnapshotCorrupt means a snapshot existed but failed its checksum
	// or decode; recovery proceeded from the raw log instead.
	SnapshotCorrupt bool `json:"snapshot_corrupt,omitempty"`
	SegmentsRead    int  `json:"segments_read"`
	RecordsApplied  int  `json:"records_applied"`
	// BadRecords counts undecodable or unknown-typed records — skipped
	// and surfaced, never fatal and never guessed at.
	BadRecords int `json:"bad_records,omitempty"`
	// JobsRestored jobs re-entered the registry; ResultsRestored
	// terminal cycle counts were seeded back into the memo table;
	// Requeued jobs were accepted before the crash but never reached a
	// terminal state and are running again.
	JobsRestored    int `json:"jobs_restored"`
	ResultsRestored int `json:"results_restored"`
	Requeued        int `json:"requeued"`
	// Conflicts counts replayed results that disagreed with an
	// already-seeded cycle count for the same spec hash — corruption
	// surfaced by the determinism guard, first writer wins.
	Conflicts int `json:"conflicts,omitempty"`
	// Truncations/TruncatedBytes carry the journal's torn-tail
	// recovery counts (frames cut at the first bad byte).
	Truncations    uint64 `json:"truncations"`
	TruncatedBytes uint64 `json:"truncated_bytes,omitempty"`
}

// OpenDurable opens (or creates) the write-ahead journal described by
// jopts, replays it into a fresh service — terminal results back into
// the memo table, accepted-but-unfinished jobs re-enqueued — and
// returns the service with every subsequent lifecycle transition
// journaled. Close drains the pool, folds the final state into a
// snapshot, and compacts the journal, so a clean restart replays the
// snapshot instead of the whole log.
func OpenDurable(opts Options, jopts journal.Options) (*Service, error) {
	j, rec, err := journal.Open(jopts)
	if err != nil {
		return nil, err
	}
	s := NewService(opts)
	s.journal = j
	s.replayRecovery(rec)
	return s, nil
}

// Journal returns the service's write-ahead log (nil when the service
// is not durable).
func (s *Service) Journal() *journal.Journal { return s.journal }

// ReplayStats returns what the service restored at startup (zero for
// a non-durable service).
func (s *Service) ReplayStats() ReplayStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replay
}

// Checkpoint folds the service's current state into a journal
// snapshot and compacts the log. A no-op without a journal.
func (s *Service) Checkpoint() error {
	if s.journal == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	data, err := json.Marshal(s.snapshotLocked())
	if err != nil {
		return fmt.Errorf("svc: marshal snapshot: %w", err)
	}
	return s.journal.Compact(data)
}

// snapshotLocked captures the compaction baseline. Jobs whose failure
// was the previous shutdown itself (interrupted) are persisted as
// still queued: the next process re-enqueues them instead of
// replaying a failure the client never caused.
func (s *Service) snapshotLocked() serviceSnapshot {
	snap := serviceSnapshot{Seq: s.seq, Memo: s.pool.MemoEntries()}
	for _, id := range s.order {
		cp := *s.jobs[id]
		if cp.interrupted {
			cp.State = Queued
			cp.Error = ""
			cp.Result = nil
			cp.FromCache = false
			cp.Started, cp.Finished = time.Time{}, time.Time{}
			cp.interrupted = false
		}
		snap.Jobs = append(snap.Jobs, cp)
	}
	snap.Evicted = append([]string(nil), s.evictedOrder...)
	return snap
}

// replayRecovery adopts the journal's recovered state into a fresh
// service: foldRecovery does the pure reconstruction (snapshot first,
// then the log records appended after it — shared with the cluster
// rebalance path), then the fold's registry is installed, its memo
// seeded into the pool, and everything non-terminal relaunched. It
// never fails — bad records are counted and skipped, conflicting
// results are refused by the determinism guard and counted.
func (s *Service) replayRecovery(rec *journal.Recovery) {
	f := foldRecovery(rec)
	st := f.stats
	// Everything accepted but never finished runs again. State resets
	// to Queued here (under the lock) so a concurrent observer never
	// sees a Running job with no worker behind it.
	var rq []*Job
	s.mu.Lock()
	s.seq = f.seq
	for _, id := range f.order {
		j := f.jobs[id]
		if !j.State.Terminal() {
			j.State = Queued
			j.Started = time.Time{}
			j.Trace = append(j.Trace, obs.Event{Name: obs.EventRequeued, Time: time.Now(), Note: "journal replay"})
			rq = append(rq, j)
		}
		s.registerLocked(j)
	}
	for _, id := range f.evictedOrder {
		s.evicted[id] = true
	}
	s.evictedOrder = append(s.evictedOrder, f.evictedOrder...)
	s.mu.Unlock()
	// At startup the pool memo is empty, so seeding the folded results
	// can only conflict if the memo itself is corrupt — counted anyway.
	for _, k := range f.memoOrder {
		if !s.pool.SeedMemo(k, f.memo[k]) {
			st.Conflicts++
		}
	}
	st.Requeued = s.relaunch(rq)
	s.mu.Lock()
	s.replay = st
	s.mu.Unlock()
}

// journalAcceptedLocked makes an admission's acceptance durable before
// anyone hears about it: one CRC32C batch_accepted frame — one append,
// one fsync — for every member, carrying each member's ID, spec hash,
// spec and idempotency key plus the ID counter seq after the group. A
// failure refuses the admission.
func (s *Service) journalAcceptedLocked(members []*Job, seq uint64) error {
	if s.journal == nil || len(members) == 0 {
		return nil
	}
	ev := jobEvent{Type: eventBatch, Seq: seq, Time: time.Now()}
	for _, j := range members {
		ev.Batch = append(ev.Batch, batchMember{ID: j.ID, Hash: j.Hash, Spec: j.Spec, IdemKey: j.IdemKey})
	}
	data, err := json.Marshal(ev)
	if err == nil {
		err = s.journal.Append(data)
	}
	if err != nil {
		s.Metrics().journalAppendError()
		return fmt.Errorf("%w: %v", ErrDurability, err)
	}
	return nil
}

// journalEventLocked appends a post-acceptance transition without an
// fsync: the admission that launched the job syncs the journal every
// few completions and at group end, amortizing the durability cost
// across the group's transitions. A crash inside that window loses
// only the unsynced transitions — replay then re-runs those jobs from
// their batch_accepted record, and the deterministic simulators
// reproduce the same cycle counts. Failures are counted (and degrade
// /healthz) but do not fail the job: the in-memory state is still
// correct and still served.
func (s *Service) journalEventLocked(t eventType, j *Job) {
	if s.journal == nil {
		return
	}
	ev := jobEvent{Type: t, ID: j.ID, Time: time.Now()}
	switch t {
	case eventDone:
		ev.Hash = j.Hash
		ev.Result = j.Result
		ev.FromCache = j.FromCache
	case eventFailed:
		ev.Error = j.Error
	}
	data, err := json.Marshal(ev)
	if err == nil {
		err = s.journal.AppendDefer(data)
	}
	if err != nil {
		s.Metrics().journalAppendError()
	}
}
