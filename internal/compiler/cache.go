package compiler

import (
	"container/list"
	"crypto/sha256"
	"sync"
	"sync/atomic"
)

// CacheKey identifies one compilation: the exact source text plus every
// option that changes the compiled artifact (toolchain identity, vet mode,
// language). Differing parts can never collide — each is length-prefixed
// into the hash.
type CacheKey [sha256.Size]byte

// NewCacheKey hashes source and the discriminating option strings.
func NewCacheKey(source string, parts ...string) CacheKey {
	h := sha256.New()
	var n [8]byte
	write := func(s string) {
		l := len(s)
		for i := 0; i < 8; i++ {
			n[i] = byte(l >> (8 * i))
		}
		h.Write(n[:])
		h.Write([]byte(s))
	}
	write(source)
	for _, p := range parts {
		write(p)
	}
	var k CacheKey
	h.Sum(k[:0])
	return k
}

// Cache memoizes successful compilations by content hash, so an owner
// that compiles the same generated source again — the accvd daemon
// across requests, the harness across screening epochs — pays for
// parsing, semantic analysis, vet and bytecode lowering once. A single
// run compiles each source once, so runners and sweeps use a cache only
// when their caller passes one. It is safe for concurrent use by the
// suite's worker pool.
//
// Executables are immutable after compilation, but toolchain wrappers own
// the value-typed Hooks field; Get therefore returns a shallow copy so a
// caller adjusting hooks on its copy can never corrupt the cached entry.
//
// The cache is LRU-bounded so long-lived owners — a daemon serving for
// weeks, a harness screening for days — hold memory proportional to the
// cap, not to history. The default cap
// (DefaultCacheCap) is deliberately generous: the full 1.0 registry in
// both languages across all simulated versions of one vendor compiles to
// well under half of it, so steady-state workloads never evict.
type Cache struct {
	mu  sync.Mutex
	cap int
	m   map[CacheKey]*list.Element
	lru *list.List // front = most recently used

	hits, misses, evictions atomic.Int64
}

// cacheEntry is one LRU node: the key rides along so eviction can delete
// the map entry without a reverse lookup.
type cacheEntry struct {
	key CacheKey
	exe *Executable
}

// DefaultCacheCap is the compiled-program capacity of NewCache. Sized so
// every workload in the repository — full registry, both languages, all
// versions of every vendor, functional and cross variants — fits with
// ample headroom; eviction exists to bound pathological callers, not to
// recycle steady state.
const DefaultCacheCap = 4096

// NewCache returns an empty cache with the default capacity.
func NewCache() *Cache { return NewCacheWithCap(DefaultCacheCap) }

// NewCacheWithCap returns an empty cache holding at most capacity
// programs, evicting least-recently-used entries past it. Non-positive
// capacities take the default.
func NewCacheWithCap(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheCap
	}
	return &Cache{
		cap: capacity,
		m:   make(map[CacheKey]*list.Element),
		lru: list.New(),
	}
}

// Cap returns the configured capacity.
func (c *Cache) Cap() int { return c.cap }

// Get returns a shallow copy of the cached executable for key, counting
// the lookup as a hit or miss and marking the entry most recently used.
func (c *Cache) Get(key CacheKey) (*Executable, bool) {
	c.mu.Lock()
	el := c.m[key]
	if el == nil {
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	c.lru.MoveToFront(el)
	cp := *el.Value.(*cacheEntry).exe
	c.mu.Unlock()
	c.hits.Add(1)
	return &cp, true
}

// Put stores a successful compilation, evicting the least-recently-used
// entry when the cache is full. The cache keeps its own shallow copy,
// insulating it from later mutation of the caller's value.
func (c *Cache) Put(key CacheKey, exe *Executable) {
	if exe == nil {
		return
	}
	cp := *exe
	c.mu.Lock()
	defer c.mu.Unlock()
	if el := c.m[key]; el != nil {
		el.Value.(*cacheEntry).exe = &cp
		c.lru.MoveToFront(el)
		return
	}
	c.m[key] = c.lru.PushFront(&cacheEntry{key: key, exe: &cp})
	if c.lru.Len() > c.cap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.m, oldest.Value.(*cacheEntry).key)
		c.evictions.Add(1)
	}
}

// Stats reports lifetime hit and miss counts (the
// accv_compile_cache_{hits,misses}_total series).
func (c *Cache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// Evictions reports the lifetime count of entries dropped by the LRU
// bound (the accv_compile_cache_evictions_total series). A steadily
// rising value under a steady workload means the cap is smaller than the
// working set and the cache is thrashing — raise the capacity
// (NewCacheWithCap, accvd -cache-cap) until it flattens.
func (c *Cache) Evictions() int64 { return c.evictions.Load() }

// Len reports the number of cached programs.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
