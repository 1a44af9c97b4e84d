package lru

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func intHash(k int) uint64 { return uint64(k) }

// TestEvictionOrder pins LRU semantics on a single shard: the
// least-recently-used entry goes first, and both Get and GetOrBuild
// refresh recency.
func TestEvictionOrder(t *testing.T) {
	c := New[int, string](3, 1, intHash)
	c.Put(1, "a")
	c.Put(2, "b")
	c.Put(3, "c")

	// Touch 1 so 2 becomes the LRU victim.
	if v, ok := c.Get(1); !ok || v != "a" {
		t.Fatalf("Get(1) = %q, %v", v, ok)
	}
	c.Put(4, "d")

	if _, ok := c.Get(2); ok {
		t.Error("2 should have been evicted (LRU)")
	}
	for _, k := range []int{1, 3, 4} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("key %d missing after eviction of 2", k)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	if st.Entries != 3 {
		t.Errorf("entries = %d, want 3", st.Entries)
	}

	// GetOrBuild refreshes recency too: touch 3, then insert; 1 is victim.
	if _, err := c.GetOrBuild(3, func() (string, error) { t.Fatal("3 should be a hit"); return "", nil }); err != nil {
		t.Fatal(err)
	}
	c.Put(5, "e")
	if _, ok := c.Get(1); ok {
		t.Error("1 should have been evicted after GetOrBuild touched 3")
	}
}

// TestPutKeepsFirstValue pins the deterministic-values contract: a second
// Put of the same key is a recency touch, never an in-place overwrite a
// concurrent reader could race with.
func TestPutKeepsFirstValue(t *testing.T) {
	c := New[int, string](8, 1, intHash)
	c.Put(1, "first")
	c.Put(1, "second")
	if v, _ := c.Get(1); v != "first" {
		t.Errorf("Put overwrote: %q", v)
	}
	if c.Len() != 1 {
		t.Errorf("len = %d", c.Len())
	}
}

// TestShardDistribution checks that the fingerprint finalizer spreads even
// adversarially sequential key hashes over every shard.
func TestShardDistribution(t *testing.T) {
	const keys, shards = 4096, 8
	c := New[int, int](keys, shards, intHash) // identity hash: worst case
	for i := 0; i < keys; i++ {
		c.Put(i, i)
	}
	for i := range c.shards {
		n := len(c.shards[i].m)
		// Uniform would be 512 per shard; require at least a quarter of that.
		if n < keys/shards/4 {
			t.Errorf("shard %d holds %d entries; distribution collapsed", i, n)
		}
	}

	// String keys through the FNV helper spread as well.
	cs := New[string, int](keys, shards, HashString)
	for i := 0; i < keys; i++ {
		cs.Put(fmt.Sprintf("request-%d", i), i)
	}
	for i := range cs.shards {
		if n := len(cs.shards[i].m); n < keys/shards/4 {
			t.Errorf("string shard %d holds %d entries", i, n)
		}
	}
}

// TestGetOrBuildSingleflight hammers one key from many goroutines: the
// build must run exactly once and every caller must observe its value.
func TestGetOrBuildSingleflight(t *testing.T) {
	c := New[string, int](16, 4, HashString)
	var builds atomic.Int32
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			v, err := c.GetOrBuild("key", func() (int, error) {
				builds.Add(1)
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("GetOrBuild = %d, %v", v, err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if builds.Load() != 1 {
		t.Errorf("build ran %d times, want 1", builds.Load())
	}
	st := c.Stats()
	if st.Hits+st.Misses != 16 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 15 hits / 1 miss", st)
	}
}

// TestPeekCountsOnlyHits: Peek behaves like Get on a hit (count +
// recency refresh) but records nothing on a miss.
func TestPeekCountsOnlyHits(t *testing.T) {
	c := New[int, string](2, 1, intHash)
	if _, ok := c.Peek(1); ok {
		t.Fatal("Peek hit on empty cache")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Errorf("Peek miss counted: %+v", st)
	}
	c.Put(1, "a")
	c.Put(2, "b")
	if v, ok := c.Peek(1); !ok || v != "a" {
		t.Fatalf("Peek(1) = %q, %v", v, ok)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Errorf("Peek hit not counted: %+v", st)
	}
	c.Put(3, "c") // Peek refreshed 1, so 2 is the LRU victim
	if _, ok := c.Get(2); ok {
		t.Error("Peek did not refresh recency: 2 survived eviction")
	}
}

// TestBuildErrorNotCached: a failed build is handed to its waiters but
// does not occupy the cache; the next call retries.
func TestBuildErrorNotCached(t *testing.T) {
	c := New[int, int](8, 1, intHash)
	boom := errors.New("boom")
	if _, err := c.GetOrBuild(1, func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if c.Len() != 0 {
		t.Fatalf("error entry retained: len = %d", c.Len())
	}
	v, err := c.GetOrBuild(1, func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("retry = %d, %v", v, err)
	}
}

// TestBuildPanicNotCached: a build that panics propagates the panic to
// its caller, leaves no entry behind, and the next call rebuilds instead
// of returning a zero value as a cached result.
func TestBuildPanicNotCached(t *testing.T) {
	c := New[int, int](8, 1, intHash)
	func() {
		defer func() {
			if p := recover(); p != "boom" {
				t.Fatalf("recovered %v, want the build's panic", p)
			}
		}()
		c.GetOrBuild(1, func() (int, error) { panic("boom") })
	}()
	if c.Len() != 0 {
		t.Fatalf("panicked entry retained: len = %d", c.Len())
	}
	v, err := c.GetOrBuild(1, func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("retry = %d, %v", v, err)
	}
}

// TestFailedCoalescedBuildCountsMiss: a waiter that joins an in-flight
// build which then fails must not be recorded as a cache hit.
func TestFailedCoalescedBuildCountsMiss(t *testing.T) {
	c := New[int, int](8, 1, intHash)
	boom := errors.New("boom")
	enter := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := c.GetOrBuild(1, func() (int, error) {
			close(enter)
			<-release
			return 0, boom
		})
		if !errors.Is(err, boom) {
			t.Errorf("initiator err = %v", err)
		}
	}()
	<-enter // the build is in flight; join it
	wg.Add(1)
	go func() {
		defer wg.Done()
		// The waiter's own build also fails, so the assertions hold even
		// in the rare interleaving where it misses the flight entirely
		// and runs its own build.
		if _, err := c.GetOrBuild(1, func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
			t.Errorf("waiter err = %v", err)
		}
	}()
	time.Sleep(10 * time.Millisecond) // usually lets the waiter join the flight
	close(release)
	wg.Wait()
	if st := c.Stats(); st.Hits != 0 || st.Misses != 2 {
		t.Errorf("stats after failed coalesced build = %+v, want 0 hits / 2 misses", st)
	}
}

// TestBoundedUnderChurn streams far more keys than capacity through the
// cache and checks the bound holds and the eviction counter accounts for
// the overflow.
func TestBoundedUnderChurn(t *testing.T) {
	const cap, n = 64, 10000
	c := New[int, int](cap, 8, intHash)
	for i := 0; i < n; i++ {
		v, err := c.GetOrBuild(i, func() (int, error) { return i * i, nil })
		if err != nil || v != i*i {
			t.Fatalf("GetOrBuild(%d) = %d, %v", i, v, err)
		}
	}
	if c.Len() > cap {
		t.Errorf("len = %d exceeds capacity %d", c.Len(), cap)
	}
	st := c.Stats()
	if int(st.Evictions) < n-cap {
		t.Errorf("evictions = %d, want >= %d", st.Evictions, n-cap)
	}
	if st.Entries != c.Len() {
		t.Errorf("stats entries %d != len %d", st.Entries, c.Len())
	}
}

// TestUnboundedMode: maxEntries 0 disables eviction entirely.
func TestUnboundedMode(t *testing.T) {
	c := New[int, int](0, 4, intHash)
	for i := 0; i < 1000; i++ {
		c.Put(i, i)
	}
	if c.Len() != 1000 {
		t.Errorf("len = %d, want 1000", c.Len())
	}
	if ev := c.Stats().Evictions; ev != 0 {
		t.Errorf("evictions = %d in unbounded mode", ev)
	}
}

// TestGetHitZeroAllocs guards the serving hot path: a cache hit must not
// allocate.
func TestGetHitZeroAllocs(t *testing.T) {
	c := New[int, int](16, 4, intHash)
	c.Put(3, 9)
	avg := testing.AllocsPerRun(100, func() {
		if _, ok := c.Get(3); !ok {
			t.Fatal("miss")
		}
	})
	if avg != 0 {
		t.Errorf("Get hit allocates %v per op, want 0", avg)
	}
}

// TestConcurrentMixedUse races Put/Get/GetOrBuild over a small bounded
// cache; run under -race in CI. Values are deterministic per key, so any
// observed hit must carry the right value.
func TestConcurrentMixedUse(t *testing.T) {
	c := New[int, int](32, 4, intHash)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (g*31 + i) % 100
				if v, ok := c.Get(k); ok && v != k*k {
					t.Errorf("Get(%d) = %d, want %d", k, v, k*k)
				}
				v, err := c.GetOrBuild(k, func() (int, error) { return k * k, nil })
				if err != nil || v != k*k {
					t.Errorf("GetOrBuild(%d) = %d, %v", k, v, err)
				}
				c.Put(k, k*k)
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 32 {
		t.Errorf("len = %d exceeds bound", c.Len())
	}
}
