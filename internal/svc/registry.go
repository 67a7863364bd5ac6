package svc

import (
	"time"

	"sigkern/internal/obs"
)

// registry is the job table: every registered job by ID, submission
// order, the remembered evicted IDs, idempotency-key bindings and the
// ID counter. The live Service and journal replay (foldState) each
// embed one, and apply is the only code that moves a registered job
// between states: the service journals each lifecycle event and then
// applies it, and replay applies the journal's events, so a restart
// rebuilds the registry the service held.
type registry struct {
	seq   uint64
	jobs  map[string]*Job
	order []string // submission order, for eviction and listing
	// evicted remembers IDs dropped by eviction so Wait can report
	// eviction distinctly from never-issued IDs; evictedOrder is its
	// age order, for the live service's bound.
	evicted      map[string]bool
	evictedOrder []string
	// idem maps idempotency keys to live job IDs: resubmitting a key
	// returns the original job instead of duplicate work.
	idem map[string]string
}

func newRegistry() registry {
	return registry{jobs: make(map[string]*Job), evicted: make(map[string]bool), idem: make(map[string]string)}
}

// apply moves the registry by one lifecycle event, live or replayed,
// and reports how many jobs it registered and how many of its parts
// were malformed and skipped. A transition for an unknown job, or a
// second terminal transition, changes nothing.
func (r *registry) apply(ev jobEvent) (added, bad int) {
	switch ev.Type {
	case eventAccepted:
		// A journal written before every admission became a
		// batch_accepted record: one job per record.
		if ev.Spec == nil {
			return 0, 1
		}
		return r.accept(ev, batchMember{ID: ev.ID, Hash: ev.Hash, Spec: *ev.Spec, IdemKey: ev.IdemKey})
	case eventBatch:
		if len(ev.Batch) == 0 {
			return 0, 1
		}
		return r.accept(ev, ev.Batch...)
	case eventStarted:
		if j := r.unfinished(ev.ID); j != nil {
			j.State, j.Started = Running, ev.Time
			j.Trace = append(j.Trace, obs.Event{Name: obs.EventStarted, Time: ev.Time})
		}
	case eventDone:
		if ev.Result == nil {
			return 0, 1
		}
		if j := r.unfinished(ev.ID); j != nil {
			j.State, j.Result, j.FromCache = Done, ev.Result, ev.FromCache
			note := ""
			if ev.FromCache {
				note = "cache hit"
			}
			j.end(ev.Time, obs.EventDone, note)
		}
	case eventFailed:
		if j := r.unfinished(ev.ID); j != nil {
			j.State, j.Error = Failed, ev.Error
			j.end(ev.Time, obs.EventFailed, ev.Error)
		}
	case eventAborted, eventEvicted:
		j, ok := r.jobs[ev.ID]
		if !ok {
			return 0, 0
		}
		delete(r.jobs, ev.ID)
		if j.IdemKey != "" && r.idem[j.IdemKey] == ev.ID {
			delete(r.idem, j.IdemKey)
		}
		r.removeFromOrder(ev.ID)
		if !j.State.Terminal() {
			close(j.done) // shed before it ran: its waiters hear it is gone
		}
		if ev.Type == eventEvicted {
			r.remember(ev.ID)
		}
	default:
		return 0, 1
	}
	return 0, 0
}

// accept registers an acceptance record's members as queued
// simulations, accepted and queued at the record's time, and carries
// the ID counter on to the record's Seq. A member already registered
// (a duplicate append, e.g. replayed twice) keeps its first record.
func (r *registry) accept(ev jobEvent, members ...batchMember) (added, bad int) {
	r.seq = max(r.seq, ev.Seq)
	for _, m := range members {
		if m.ID == "" {
			bad++
			continue
		}
		if _, dup := r.jobs[m.ID]; dup {
			continue
		}
		r.add(&Job{
			ID: m.ID, Spec: m.Spec, Hash: m.Hash, IdemKey: m.IdemKey, Priority: m.Priority,
			State: Queued, Tier: TierSimulate, Submitted: ev.Time,
			// One backing array sized for the common accepted→queued→
			// started→done lifecycle; only retries grow it.
			Trace: append(make([]obs.Event, 0, 4),
				obs.Event{Name: obs.EventAccepted, Time: ev.Time},
				obs.Event{Name: obs.EventQueued, Time: ev.Time}),
		})
		added++
	}
	return added, bad
}

// add adopts a whole job as it was — restored from a snapshot or
// ingested from another shard — with its state, trace and times, gives
// it a completion channel (already closed for a terminal job) and binds
// its idempotency key.
func (r *registry) add(j *Job) {
	j.done = make(chan struct{})
	if j.State.Terminal() {
		close(j.done)
	}
	r.jobs[j.ID] = j
	r.order = append(r.order, j.ID)
	if j.IdemKey != "" {
		r.idem[j.IdemKey] = j.ID
	}
}

// unfinished returns the registered job id if it has not reached a
// terminal state, else nil.
func (r *registry) unfinished(id string) *Job {
	if j, ok := r.jobs[id]; ok && !j.State.Terminal() {
		return j
	}
	return nil
}

// remember records id as evicted.
func (r *registry) remember(id string) {
	r.evicted[id] = true
	r.evictedOrder = append(r.evictedOrder, id)
}

// removeFromOrder drops one ID from the submission order, shifting
// whichever side of it is shorter: eviction takes the oldest jobs,
// near the front, and a shed admission the newest, at the back.
func (r *registry) removeFromOrder(id string) {
	for i, jid := range r.order {
		if jid != id {
			continue
		}
		if i < len(r.order)/2 {
			copy(r.order[1:i+1], r.order[:i])
			r.order[0] = ""
			r.order = r.order[1:]
		} else {
			r.order = append(r.order[:i], r.order[i+1:]...)
		}
		return
	}
}

// end records a job's terminal transition: its finish time, its trace
// event, and its completion channel closed for Wait.
func (j *Job) end(at time.Time, event, note string) {
	j.Finished = at
	j.Trace = append(j.Trace, obs.Event{Name: event, Time: at, Note: note})
	close(j.done)
}

// requeue resets a job that must run again — interrupted by a
// shutdown, unfinished at a crash, or handed over unfinished by another
// shard — to queued, and notes why on its trace when note is set.
func (j *Job) requeue(note string) {
	j.State, j.Result, j.FromCache, j.Error = Queued, nil, false, ""
	j.Started, j.Finished = time.Time{}, time.Time{}
	j.interrupted = false
	if note != "" {
		j.Trace = append(j.Trace, obs.Event{Name: obs.EventRequeued, Time: time.Now(), Note: note})
	}
}
