// Package lru is the repo's shared serving cache: a sharded, size-bounded
// LRU with build-once (singleflight) entry construction and hit/miss/
// eviction counters. It replaces the unbounded process-wide memo maps that
// the prediction and experiment layers grew while they were driven only by
// finite, known workloads — under unbounded query traffic (the paceserve
// subsystem) every cache must have a ceiling and an eviction policy.
//
// Design constraints, in order:
//
//   - Correct under concurrency: each shard is guarded by one mutex; an
//     entry's value is published either under that mutex (Put) or through
//     a sync.Once + atomic done flag (GetOrBuild), so readers never see a
//     half-written value.
//   - Deterministic values: the repo's caches store pure functions of their
//     keys (predictions, fitted evaluators, simulated measurements), so
//     Put never overwrites an existing entry — two racing writers hold the
//     same value by construction and the first insert wins. This is what
//     makes eviction safe: a rebuilt entry is byte-identical to the
//     evicted one.
//   - Allocation-free hits: Get performs a map lookup and two pointer
//     splices; nothing on the hit path escapes. Serving hot paths
//     (pace.Evaluator.CachedPredict) rely on this.
//
// Shard selection applies a 64-bit finalizer to the caller-supplied hash,
// so even weak key hashes (sequential ints) spread across shards.
package lru

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
)

// errBuildPanicked is the error a GetOrBuild flight reports to its
// waiters when its build panicked (the building caller sees the panic).
var errBuildPanicked = errors.New("lru: build panicked")

// entry is one cached key/value pair. It lives in exactly one shard's map
// and that shard's intrusive LRU list. The value is readable when done is
// set; done is written exactly once, after v/err.
type entry[K comparable, V any] struct {
	key        K
	once       sync.Once
	v          V
	err        error
	done       atomic.Bool
	prev, next *entry[K, V]
}

// shard is one lock domain: a map for lookup plus an intrusive
// doubly-linked list in recency order (mru = most recently used).
type shard[K comparable, V any] struct {
	mu       sync.Mutex
	m        map[K]*entry[K, V]
	mru, lru *entry[K, V]
}

// Cache is a sharded, size-bounded LRU. The zero value is not usable; use
// New. Values must be deterministic per key (see the package comment).
type Cache[K comparable, V any] struct {
	shards      []shard[K, V]
	mask        uint64
	capPerShard int // 0 = unbounded
	hash        func(K) uint64

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
}

// New builds a cache of at most maxEntries values (0 = unbounded) split
// over the given shard count (rounded up to a power of two, minimum 1).
// hash maps a key to a 64-bit fingerprint; it only has to be a function of
// the key — New's internal finalizer handles dispersion.
func New[K comparable, V any](maxEntries, shards int, hash func(K) uint64) *Cache[K, V] {
	if shards < 1 {
		shards = 1
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	capPerShard := 0
	if maxEntries > 0 {
		capPerShard = (maxEntries + n - 1) / n
	}
	c := &Cache[K, V]{
		shards:      make([]shard[K, V], n),
		mask:        uint64(n - 1),
		capPerShard: capPerShard,
		hash:        hash,
	}
	for i := range c.shards {
		c.shards[i].m = make(map[K]*entry[K, V])
	}
	return c
}

// mix64 is the splitmix64 finalizer: full-avalanche dispersion of whatever
// the caller-supplied hash produced, so shard selection by low bits is
// uniform even for sequential fingerprints.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

func (c *Cache[K, V]) shardFor(k K) *shard[K, V] {
	return &c.shards[mix64(c.hash(k))&c.mask]
}

// --- intrusive recency list (callers hold s.mu) ---

func (s *shard[K, V]) unlink(e *entry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.mru = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.lru = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *shard[K, V]) pushFront(e *entry[K, V]) {
	e.prev, e.next = nil, s.mru
	if s.mru != nil {
		s.mru.prev = e
	}
	s.mru = e
	if s.lru == nil {
		s.lru = e
	}
}

func (s *shard[K, V]) touch(e *entry[K, V]) {
	if s.mru == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}

// evictOver drops least-recently-used entries until the shard is within
// capacity, returning how many were dropped. In-flight GetOrBuild entries
// may be evicted; their builders still complete and hand waiters the
// value — it just isn't retained.
func (s *shard[K, V]) evictOver(capPerShard int) int {
	if capPerShard <= 0 {
		return 0
	}
	n := 0
	for len(s.m) > capPerShard && s.lru != nil {
		victim := s.lru
		s.unlink(victim)
		delete(s.m, victim.key)
		n++
	}
	return n
}

// lookup is the shared hit path of Get and Peek: a completed entry's
// value under the shard lock, recency refreshed, hit counted. Misses are
// counted only when countMiss is set. Performs no allocations.
func (c *Cache[K, V]) lookup(k K, countMiss bool) (V, bool) {
	s := c.shardFor(k)
	s.mu.Lock()
	e, ok := s.m[k]
	if !ok || !e.done.Load() || e.err != nil {
		s.mu.Unlock()
		if countMiss {
			c.misses.Add(1)
		}
		var zero V
		return zero, false
	}
	s.touch(e)
	v := e.v
	s.mu.Unlock()
	c.hits.Add(1)
	return v, true
}

// Get returns the cached value for k, if a completed entry exists, and
// counts the outcome. A hit refreshes the entry's recency.
func (c *Cache[K, V]) Get(k K) (V, bool) { return c.lookup(k, true) }

// Peek is Get for opportunistic fast-path probes: a hit counts and
// refreshes recency exactly like Get, but a miss is not counted — the
// caller is about to fall through to a counted slow path, and recording
// the probe too would double-count every cold lookup.
func (c *Cache[K, V]) Peek(k K) (V, bool) { return c.lookup(k, false) }

// Put inserts a completed value for k. If the key is already present the
// existing entry is kept (values are deterministic per key; see the
// package comment) and only its recency is refreshed. Put does not touch
// the hit/miss counters — pair it with Get for read-through use.
func (c *Cache[K, V]) Put(k K, v V) {
	s := c.shardFor(k)
	s.mu.Lock()
	if e, ok := s.m[k]; ok {
		s.touch(e)
		s.mu.Unlock()
		return
	}
	e := &entry[K, V]{key: k, v: v}
	e.done.Store(true)
	s.m[k] = e
	s.pushFront(e)
	evicted := s.evictOver(c.capPerShard)
	s.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(uint64(evicted))
	}
}

// GetOrBuild returns the value for k, building it at most once per
// residency even when many goroutines ask concurrently: callers that find
// an in-flight entry block on that build rather than duplicating it. A
// build error is returned to every waiter of that flight but is not
// cached — the entry is removed so a later call retries.
func (c *Cache[K, V]) GetOrBuild(k K, build func() (V, error)) (V, error) {
	s := c.shardFor(k)
	s.mu.Lock()
	e, ok := s.m[k]
	if ok {
		s.touch(e)
		if e.done.Load() && e.err == nil {
			// Completed entry (built here or inserted via Put, whose once
			// never fired): return without touching the once.
			v := e.v
			s.mu.Unlock()
			c.hits.Add(1)
			return v, nil
		}
	} else {
		e = &entry[K, V]{key: k}
		s.m[k] = e
		s.pushFront(e)
	}
	evicted := s.evictOver(c.capPerShard)
	s.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(uint64(evicted))
	}
	if !ok {
		c.misses.Add(1)
	}
	e.once.Do(func() {
		// Publish from a defer, with the error preset, so a build that
		// panics fails its flight like a build error: waiters get
		// errBuildPanicked and the entry is dropped, instead of staying
		// resident with a zero value that later calls return as a result.
		e.err = errBuildPanicked
		defer func() {
			e.done.Store(true)
			if e.err != nil {
				s.mu.Lock()
				if cur, still := s.m[k]; still && cur == e {
					s.unlink(e)
					delete(s.m, k)
				}
				s.mu.Unlock()
			}
		}()
		e.v, e.err = build()
	})
	if ok {
		// Joined an in-flight build: count by its outcome — a coalesced
		// flight that failed never produced a cached value and must not
		// inflate the hit rate.
		if e.err == nil {
			c.hits.Add(1)
		} else {
			c.misses.Add(1)
		}
	}
	return e.v, e.err
}

// Len reports the number of resident entries (including in-flight builds).
func (c *Cache[K, V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// Stats snapshots the cumulative counters and current size.
func (c *Cache[K, V]) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.Len(),
	}
}

// --- key fingerprinting ---

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Hasher accumulates an FNV-1a fingerprint over a key's fields. It is a
// value type so fingerprinting allocates nothing:
//
//	h := lru.NewHasher()
//	h.Int(k.PX); h.Float64(k.MFLOPS); h.String(k.Platform)
//	return h.Sum()
type Hasher struct{ h uint64 }

// NewHasher returns a Hasher at the FNV-1a offset basis.
func NewHasher() Hasher { return Hasher{h: fnvOffset64} }

// Uint64 folds one 64-bit word into the fingerprint byte by byte.
func (h *Hasher) Uint64(v uint64) {
	for i := 0; i < 8; i++ {
		h.h ^= v & 0xff
		h.h *= fnvPrime64
		v >>= 8
	}
}

// Int folds one int.
func (h *Hasher) Int(v int) { h.Uint64(uint64(v)) }

// Float64 folds one float64 by its IEEE-754 bit pattern.
func (h *Hasher) Float64(v float64) { h.Uint64(math.Float64bits(v)) }

// Bool folds one bool.
func (h *Hasher) Bool(v bool) {
	if v {
		h.Uint64(1)
	} else {
		h.Uint64(0)
	}
}

// String folds a string's bytes.
func (h *Hasher) String(s string) {
	for i := 0; i < len(s); i++ {
		h.h ^= uint64(s[i])
		h.h *= fnvPrime64
	}
	// Length terminator: distinguishes {"ab","c"} from {"a","bc"}.
	h.Uint64(uint64(len(s)))
}

// Sum returns the accumulated fingerprint.
func (h *Hasher) Sum() uint64 { return h.h }

// HashString fingerprints a single string key.
func HashString(s string) uint64 {
	h := NewHasher()
	h.String(s)
	return h.Sum()
}
