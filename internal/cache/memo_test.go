package cache

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMemoGetPut(t *testing.T) {
	m := NewMemo[int](4)
	if _, ok := m.Get("a"); ok {
		t.Fatal("hit on empty memo")
	}
	m.Put("a", 1)
	if v, ok := m.Get("a"); !ok || v != 1 {
		t.Fatalf("got %d/%v", v, ok)
	}
	m.Put("a", 2) // overwrite
	if v, _ := m.Get("a"); v != 2 {
		t.Fatalf("overwrite lost: %d", v)
	}
	hits, misses := m.Counters()
	if hits != 2 || misses != 1 {
		t.Fatalf("hits/misses = %d/%d", hits, misses)
	}
	if hr := float64(hits) / float64(hits+misses); hr < 0.66 || hr > 0.67 {
		t.Fatalf("hit rate %v", hr)
	}
}

func TestMemoLRUEviction(t *testing.T) {
	m := NewMemo[string](2)
	m.Put("a", "A")
	m.Put("b", "B")
	m.Get("a") // make b the LRU entry
	m.Put("c", "C")
	if m.Len() != 2 {
		t.Fatalf("len = %d", m.Len())
	}
	if _, ok := m.Get("b"); ok {
		t.Fatal("LRU entry b survived eviction")
	}
	if _, ok := m.Get("a"); !ok {
		t.Fatal("recently used entry a was evicted")
	}
	if _, ok := m.Get("c"); !ok {
		t.Fatal("new entry c missing")
	}
}

func TestMemoDefaultCapacity(t *testing.T) {
	m := NewMemo[int](0)
	for i := 0; i < 100; i++ {
		m.Put(fmt.Sprintf("k%d", i), i)
	}
	if m.Len() != 64 {
		t.Fatalf("default capacity: len = %d, want 64", m.Len())
	}
}

// TestMemoConcurrent exercises the memo, bounded by entries and by
// bytes, from many goroutines; under -race this is the
// concurrency-safety check the hardware Cache type explicitly does not
// make.
func TestMemoConcurrent(t *testing.T) {
	const budget = 200
	for name, m := range map[string]*Memo[uint64]{
		"entries": NewMemo[uint64](32),
		"bytes":   NewSizedMemo("cache_test_concurrent", budget, func(uint64) int { return 8 }),
	} {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					key := fmt.Sprintf("k%d", i%40)
					if v, ok := m.Get(key); ok && v != uint64(i%40) {
						t.Errorf("%s: key %s holds %d", name, key, v)
					}
					m.Put(key, uint64(i%40))
					switch i % 50 {
					case 13:
						m.Bytes()
					case 37:
						m.Purge()
					}
				}
			}(g)
		}
		wg.Wait()
		if b := m.Bytes(); b > budget {
			t.Errorf("%s: %d bytes retained, budget %d", name, b, budget)
		}
	}
}

func TestMemoShardCount(t *testing.T) {
	cases := []struct{ capacity, want int }{
		{1, 1}, {2, 1}, {64, 1}, {127, 1},
		{128, 2}, {256, 4}, {512, 8}, {1024, 16},
		{4096, 16}, // capped at maxMemoShards
	}
	for _, c := range cases {
		if got := NewMemo[int](c.capacity).ShardCount(); got != c.want {
			t.Errorf("capacity %d: %d shards, want %d", c.capacity, got, c.want)
		}
	}
}

// TestMemoShardedCapacity proves sharding preserves the total bound:
// per-shard LRU eviction may reorder victims, but the table never holds
// more than capacity entries, and heavily reused keys survive.
func TestMemoShardedCapacity(t *testing.T) {
	const capacity = 256
	m := NewMemo[int](capacity)
	if m.ShardCount() < 2 {
		t.Fatalf("want a sharded table, got %d shard(s)", m.ShardCount())
	}
	for i := 0; i < 4*capacity; i++ {
		m.Put(fmt.Sprintf("k%d", i), i)
	}
	if n := m.Len(); n > capacity {
		t.Fatalf("len %d exceeds capacity %d", n, capacity)
	}
	// Every shard fills to its own bound, so the aggregate sits near
	// capacity (exact when keys spread; allow the hash some slack).
	if n := m.Len(); n < capacity/2 {
		t.Fatalf("len %d, want near %d", n, capacity)
	}
}

// TestMemoShardedEviction checks per-shard LRU: a key probed right
// before its shard overflows outlives colder keys in the same shard.
func TestMemoShardedEviction(t *testing.T) {
	m := NewMemo[int](128)
	keys := make([]string, 0, 512)
	for i := 0; i < 512; i++ {
		keys = append(keys, fmt.Sprintf("k%d", i))
	}
	for i, k := range keys[:64] {
		m.Put(k, i)
	}
	hot := keys[0]
	for i, k := range keys[64:] {
		m.Get(hot) // refresh recency every step
		m.Put(k, 64+i)
	}
	if _, ok := m.Peek(hot); !ok {
		t.Fatal("constantly refreshed key was evicted")
	}
}

// TestMemoShardedConcurrent hammers a multi-shard memo from many
// goroutines — under -race this is the check that per-shard locking
// still covers every path (Get/Put/Peek/Entries/Counters/Len).
func TestMemoShardedConcurrent(t *testing.T) {
	m := NewMemo[uint64](1024)
	if m.ShardCount() < 2 {
		t.Fatalf("want a sharded table, got %d shard(s)", m.ShardCount())
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", i%200)
				if v, ok := m.Get(key); ok && v != uint64(i%200) {
					t.Errorf("key %s holds %d", key, v)
				}
				m.Put(key, uint64(i%200))
				switch i % 100 {
				case 17:
					m.Entries()
				case 53:
					m.Counters()
				case 89:
					m.Len()
				}
			}
		}(g)
	}
	wg.Wait()
	if hits, misses := m.Counters(); hits+misses != 16*500 {
		t.Fatalf("counters %d+%d, want %d probes", hits, misses, 16*500)
	}
}

// TestMemoShardedCorruptor proves SetCorruptor reaches every shard:
// keys hash across all of them, and each corrupted Get serves the
// damaged value while Peek still sees the truth.
func TestMemoShardedCorruptor(t *testing.T) {
	m := NewMemo[int](1024)
	for i := 0; i < 64; i++ {
		m.Put(fmt.Sprintf("k%d", i), i)
	}
	m.SetCorruptor(func(key string, v int) (int, bool) { return -v, true })
	for i := 1; i < 64; i++ {
		key := fmt.Sprintf("k%d", i)
		if v, _ := m.Get(key); v != -i {
			t.Fatalf("corruptor missed shard holding %s: got %d", key, v)
		}
		if v, _ := m.Peek(key); v != i {
			t.Fatalf("corruptor damaged stored entry %s: %d", key, v)
		}
	}
	m.SetCorruptor(nil)
	if v, _ := m.Get("k7"); v != 7 {
		t.Fatalf("corruptor removal missed a shard: %d", v)
	}
}

func TestMemoEntries(t *testing.T) {
	m := NewMemo[int](4)
	m.Put("a", 1)
	m.Put("b", 2)
	hits, misses := m.Counters()
	got := m.Entries()
	if len(got) != 2 || got["a"] != 1 || got["b"] != 2 {
		t.Fatalf("entries = %v", got)
	}
	// Entries is a copy and touches no statistics.
	got["a"] = 99
	if v, _ := m.Peek("a"); v != 1 {
		t.Fatalf("Entries aliases storage: %d", v)
	}
	if h2, m2 := m.Counters(); h2 != hits || m2 != misses {
		t.Fatal("Entries moved the hit/miss counters")
	}
}

// TestSizedMemoBudget pins the byte-bounded mode: entries cost
// len(key) + size(value), the total never exceeds the budget, the least
// recently used entries go first, an oversize value is not stored, and
// Purge drops entries but keeps the counters.
func TestSizedMemoBudget(t *testing.T) {
	m := NewSizedMemo("cache_test_budget", 100, func(v []byte) int { return len(v) })
	m.Put("a", make([]byte, 39)) // 40 bytes
	m.Put("b", make([]byte, 39)) // 80
	m.Get("a")                   // b is now the LRU entry
	m.Put("c", make([]byte, 39)) // 120 > 100: b goes
	if b, n := m.Bytes(), m.Len(); b != 80 || n != 2 {
		t.Fatalf("after eviction: %d bytes in %d entries, want 80 in 2", b, n)
	}
	if _, ok := m.Peek("b"); ok {
		t.Fatal("LRU entry b survived eviction")
	}
	m.Put("a", make([]byte, 9)) // re-put shrinks a to 10 bytes
	if b := m.Bytes(); b != 50 {
		t.Fatalf("re-put: %d bytes, want 50", b)
	}
	m.Put("huge", make([]byte, 200))
	if _, ok := m.Peek("huge"); ok {
		t.Fatal("a value larger than the budget was stored")
	}
	if b, n := m.Bytes(), m.Len(); b != 50 || n != 2 {
		t.Fatalf("oversize put disturbed the memo: %d bytes in %d entries", b, n)
	}
	for i := 0; i < 50; i++ {
		m.Put(fmt.Sprintf("k%02d", i), make([]byte, i))
		if b := m.Bytes(); b > 100 {
			t.Fatalf("put %d: %d bytes retained, budget 100", i, b)
		}
	}
	m.Purge()
	hits, misses := m.Counters()
	if b, n := m.Bytes(), m.Len(); b != 0 || n != 0 || hits != 1 || misses != 0 {
		t.Fatalf("after Purge: %d bytes in %d entries, %d hits, %d misses; want empty with the one hit kept",
			b, n, hits, misses)
	}
}

// TestMemoDoBuildsOnce starts N callers on one missing key while the
// build is held open: exactly one builds, every caller gets its value,
// and the counters read one miss and N-1 hits.
func TestMemoDoBuildsOnce(t *testing.T) {
	const n = 16
	m := NewSizedMemo("cache_test_do", 1<<10, func(int) int { return 8 })
	var builds atomic.Int32
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := m.Do("k", func() (int, error) {
				builds.Add(1)
				<-gate
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("Do = %d, %v; want 42", v, err)
			}
		}()
	}
	// Hold the build open until the other callers have had time to
	// reach Do; a straggler that arrives after it ends is a plain hit.
	for builds.Load() == 0 {
		runtime.Gosched()
	}
	time.Sleep(10 * time.Millisecond)
	close(gate)
	wg.Wait()
	if b := builds.Load(); b != 1 {
		t.Fatalf("%d builds for one key, want 1", b)
	}
	if hits, misses := m.Counters(); hits != n-1 || misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want %d/1", hits, misses, n-1)
	}
	if v, ok := m.Peek("k"); !ok || v != 42 {
		t.Fatalf("stored %d/%v, want 42", v, ok)
	}
}

// TestMemoDoFailedBuild holds a failing and a panicking build open while
// a second caller waits on the key: the caller that ran the build gets
// the error (or the panic), nothing is stored, and the waiter is
// released to build the value itself.
func TestMemoDoFailedBuild(t *testing.T) {
	for _, mode := range []string{"error", "panic"} {
		t.Run(mode, func(t *testing.T) {
			m := NewMemo[int](4)
			started, gate := make(chan struct{}), make(chan struct{})
			firstDone := make(chan error, 1)
			go func() {
				defer func() {
					if r := recover(); r != nil {
						firstDone <- fmt.Errorf("panic: %v", r)
					}
				}()
				_, err := m.Do("k", func() (int, error) {
					close(started)
					<-gate
					if mode == "panic" {
						panic("build exploded")
					}
					return 0, errors.New("build failed")
				})
				firstDone <- err
			}()
			<-started
			waiter := make(chan int, 1)
			go func() {
				v, err := m.Do("k", func() (int, error) { return 7, nil })
				if err != nil {
					t.Errorf("waiter: %v", err)
				}
				waiter <- v
			}()
			time.Sleep(10 * time.Millisecond) // let the waiter block on the build
			if _, ok := m.Peek("k"); ok {
				t.Fatal("value stored while its build was still running")
			}
			close(gate)
			if err := <-firstDone; err == nil {
				t.Fatal("the building caller saw no failure")
			}
			select {
			case v := <-waiter:
				if v != 7 {
					t.Fatalf("waiter got %d, want its own build's 7", v)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("waiter never released after the failed build")
			}
			if v, ok := m.Peek("k"); !ok || v != 7 {
				t.Fatalf("stored %d/%v after the waiter's build, want 7", v, ok)
			}
			if hits, misses := m.Counters(); hits != 0 || misses != 2 {
				t.Fatalf("hits/misses = %d/%d, want 0/2: both callers built", hits, misses)
			}
		})
	}
}
