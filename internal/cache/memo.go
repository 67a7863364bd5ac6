package cache

import (
	"hash/maphash"
	"slices"
	"strings"
	"sync"
)

// Sharding bounds: a memo splits into power-of-two shards only while
// each shard keeps at least minShardCapacity entries of its own, so
// small tables (including the 64-entry default) stay a single shard
// with exact global LRU order, while service-sized tables (1024+)
// fan out across up to maxMemoShards independently locked shards.
const (
	minShardCapacity = 64
	maxMemoShards    = 16
)

// Memo is a bounded, concurrency-safe memoization table with LRU
// eviction — the software analogue of the hardware caches this package
// simulates, reused by the simulation service to avoid re-running a
// simulation whose exact job spec has been seen before. Keys are
// canonical strings (the service hashes job specs); values are whatever
// the caller stores (simulation results).
//
// Unlike Cache, Memo is safe for concurrent use: the service's worker
// pool probes and fills it from many goroutines. To keep those probes
// from serializing on one lock, the table is split into power-of-two
// shards selected by a maphash of the key; each shard holds its own
// mutex, map, and LRU clock. Eviction is LRU within a shard (an
// approximation of global LRU, exact when the table is small enough
// for a single shard), and statistics aggregate across shards.
type Memo[V any] struct {
	seed   maphash.Seed
	shards []memoShard[V]
	mask   uint64
}

type memoShard[V any] struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]*memoEntry[V]
	tick     uint64
	hits     uint64
	misses   uint64
	// size, when set, bounds the shard by bytes instead of entries: an
	// entry costs len(key) + size(value), and bytes never exceeds budget.
	size   func(V) int
	budget int
	bytes  int
	// corrupt, when set, may damage values on the Get path — the
	// fault-injection hook chaos runs use to prove the service's
	// determinism guard catches a lying cache. See SetCorruptor.
	corrupt func(key string, value V) (V, bool)
	// building maps each key a Do call is building to a channel closed
	// when that build ends; concurrent Do misses on the key wait on it.
	building map[string]chan struct{}

	// Pad shards out to their own cache lines so two shards' mutexes
	// never share one and ping-pong under contention.
	_ [64]byte
}

type memoEntry[V any] struct {
	value V
	used  uint64 // LRU timestamp
	bytes int    // cost charged against a byte budget
}

// shardCountFor picks the largest power-of-two shard count (capped at
// maxMemoShards) that still leaves every shard minShardCapacity slots.
func shardCountFor(capacity int) int {
	n := 1
	for n < maxMemoShards && capacity/(n*2) >= minShardCapacity {
		n *= 2
	}
	return n
}

// NewMemo returns a memo table holding at most capacity entries; a
// non-positive capacity gets a small default.
func NewMemo[V any](capacity int) *Memo[V] {
	if capacity <= 0 {
		capacity = 64
	}
	n := shardCountFor(capacity)
	m := &Memo[V]{
		seed:   maphash.MakeSeed(),
		shards: make([]memoShard[V], n),
		mask:   uint64(n - 1),
	}
	for i := range m.shards {
		c := capacity / n
		if i < capacity%n {
			c++
		}
		m.shards[i] = memoShard[V]{
			capacity: c,
			entries:  make(map[string]*memoEntry[V]),
		}
	}
	return m
}

// NewSizedMemo returns a memo bounded by bytes instead of entries. It
// charges each entry len(key) + size(value), evicts least recently used
// entries to keep the total within budget, and does not store a value
// that alone exceeds it. It is a single shard, so LRU order is exact.
//
// A sized memo is process-wide state, so NewSizedMemo registers it under
// name in one list: PurgeProcessMemos empties every memo on it and
// ProcessMemoStats reports them, so a cold measurement and /metrics
// reach a new memo without naming it.
func NewSizedMemo[V any](name string, budget int, size func(V) int) *Memo[V] {
	m := NewMemo[V](1) // one shard; its entry capacity is unused
	m.shards[0].size = size
	m.shards[0].budget = budget
	processMemos.Lock()
	defer processMemos.Unlock()
	processMemos.list = append(processMemos.list, processMemo{name, m})
	return m
}

// processMemos lists the memos NewSizedMemo made.
var processMemos struct {
	sync.Mutex
	list []processMemo
}

type processMemo struct {
	name string
	memo interface {
		Purge()
		Counters() (hits, misses uint64)
		Bytes() int
	}
}

// MemoStats is one registered memo's lookup counts since it was made
// (Purge keeps them) and the bytes it retains.
type MemoStats struct {
	Name         string
	Hits, Misses uint64
	Bytes        int
}

// PurgeProcessMemos drops the entries of every memo NewSizedMemo made,
// keeping their counters.
func PurgeProcessMemos() {
	processMemos.Lock()
	defer processMemos.Unlock()
	for _, p := range processMemos.list {
		p.memo.Purge()
	}
}

// ProcessMemoStats reports every memo NewSizedMemo made, sorted by name.
func ProcessMemoStats() []MemoStats {
	processMemos.Lock()
	defer processMemos.Unlock()
	out := make([]MemoStats, len(processMemos.list))
	for i, p := range processMemos.list {
		hits, misses := p.memo.Counters()
		out[i] = MemoStats{p.name, hits, misses, p.memo.Bytes()}
	}
	slices.SortFunc(out, func(a, b MemoStats) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// Unregister takes m off the list NewSizedMemo put it on. The
// process-wide memos never call it; a test's throwaway memo does, so
// that it leaves no series behind.
func (m *Memo[V]) Unregister() {
	processMemos.Lock()
	defer processMemos.Unlock()
	processMemos.list = slices.DeleteFunc(processMemos.list, func(p processMemo) bool { return p.memo == m })
}

// shard routes a key to its shard by maphash.
func (m *Memo[V]) shard(key string) *memoShard[V] {
	if m.mask == 0 {
		return &m.shards[0]
	}
	return &m.shards[maphash.String(m.seed, key)&m.mask]
}

// ShardCount reports how many independently locked shards the table
// uses (1 for small capacities, where LRU order is exact and global).
func (m *Memo[V]) ShardCount() int { return len(m.shards) }

// Get returns the memoized value for key and whether it was present,
// updating hit/miss statistics and recency. When a corruptor is
// installed (fault injection), the returned value may be damaged; the
// stored entry is never modified, so Peek still sees the truth.
func (m *Memo[V]) Get(key string) (V, bool) {
	s := m.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tick++
	if e, ok := s.entries[key]; ok {
		e.used = s.tick
		s.hits++
		if s.corrupt != nil {
			if v, corrupted := s.corrupt(key, e.value); corrupted {
				return v, true
			}
		}
		return e.value, true
	}
	s.misses++
	var zero V
	return zero, false
}

// Peek returns the stored value for key without touching statistics,
// recency, or the corruption hook — the read the service's determinism
// guard compares served results against.
func (m *Memo[V]) Peek(key string) (V, bool) {
	s := m.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[key]; ok {
		return e.value, true
	}
	var zero V
	return zero, false
}

// SetCorruptor installs (or, with nil, removes) a fault-injection hook
// consulted on every Get: when it reports true, its return value is
// served in place of the stored one. Production code never installs
// one; chaos runs use it to model a corrupted cache line.
func (m *Memo[V]) SetCorruptor(f func(key string, value V) (V, bool)) {
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		s.corrupt = f
		s.mu.Unlock()
	}
}

// Do returns the value stored under key, building it with build and
// storing it on a miss. Concurrent misses on one key build it once: the
// first caller runs build while the rest wait for it and then read the
// stored value. A build that fails or panics stores nothing and releases
// its waiters, which then look the key up again (and build it themselves
// if it is still missing); the caller that ran build gets its error or
// panic. Each call counts one hit or one miss: a miss when it ran build.
// Do does not consult the corruptor.
func (m *Memo[V]) Do(key string, build func() (V, error)) (V, error) {
	s := m.shard(key)
	for {
		s.mu.Lock()
		s.tick++
		if e, ok := s.entries[key]; ok {
			e.used = s.tick
			s.hits++
			s.mu.Unlock()
			return e.value, nil
		}
		if wait, ok := s.building[key]; ok {
			s.mu.Unlock()
			<-wait
			continue
		}
		if s.building == nil {
			s.building = make(map[string]chan struct{})
		}
		done := make(chan struct{})
		s.building[key] = done
		s.misses++
		s.mu.Unlock()
		return m.fill(s, key, done, build)
	}
}

// fill runs one Do build and stores its value, then releases the key's
// waiters whether the build returned, failed or panicked.
func (m *Memo[V]) fill(s *memoShard[V], key string, done chan struct{}, build func() (V, error)) (V, error) {
	defer func() {
		s.mu.Lock()
		delete(s.building, key)
		s.mu.Unlock()
		close(done)
	}()
	v, err := build()
	if err == nil {
		m.Put(key, v)
	}
	return v, err
}

// Put stores value under key, evicting the least recently used entries
// in the key's shard while that shard is full.
func (m *Memo[V]) Put(key string, value V) {
	s := m.shard(key)
	cost := 0
	if s.size != nil { // fixed at construction, so read without the lock
		if cost = len(key) + s.size(value); cost > s.budget {
			return
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tick++
	if e, ok := s.entries[key]; ok {
		s.remove(key, e)
	}
	for len(s.entries) > 0 && s.full(cost) {
		var victim string
		var oldest uint64
		first := true
		for k, e := range s.entries {
			if first || e.used < oldest {
				victim, oldest, first = k, e.used, false
			}
		}
		s.remove(victim, s.entries[victim])
	}
	s.entries[key] = &memoEntry[V]{value: value, used: s.tick, bytes: cost}
	s.bytes += cost
}

// full reports whether the shard must evict before taking an entry of
// the given cost.
func (s *memoShard[V]) full(cost int) bool {
	if s.size != nil {
		return s.bytes+cost > s.budget
	}
	return len(s.entries) >= s.capacity
}

func (s *memoShard[V]) remove(key string, e *memoEntry[V]) {
	delete(s.entries, key)
	s.bytes -= e.bytes
}

// Purge drops every entry, keeping the hit and miss counts.
func (m *Memo[V]) Purge() {
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		clear(s.entries)
		s.bytes = 0
		s.mu.Unlock()
	}
}

// Entries returns a copy of the table's current contents, keyed as
// stored. The simulation service's durability layer serializes this
// into its journal snapshot so memoized results survive a restart;
// reading it touches neither statistics nor recency.
func (m *Memo[V]) Entries() map[string]V {
	out := make(map[string]V, m.Len())
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		for k, e := range s.entries {
			out[k] = e.value
		}
		s.mu.Unlock()
	}
	return out
}

// Len returns the number of memoized entries.
func (m *Memo[V]) Len() int {
	n := 0
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// Bytes returns the cost a sized memo retains against its budget (0
// for a memo bounded by entries).
func (m *Memo[V]) Bytes() int {
	n := 0
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		n += s.bytes
		s.mu.Unlock()
	}
	return n
}

// Counters returns the cumulative hit and miss counts, aggregated
// across shards.
func (m *Memo[V]) Counters() (hits, misses uint64) {
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		hits += s.hits
		misses += s.misses
		s.mu.Unlock()
	}
	return hits, misses
}
