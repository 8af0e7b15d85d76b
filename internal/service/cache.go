package service

// Result cache (docs/SERVICE.md §5).
//
// Discovery is deterministic: the cover a run returns is a pure function
// of the input matrices and the semantic options. The cache key is
// therefore the pair of matrix fingerprints (bitmat.Fingerprint over
// tumor and normal) plus the canonicalized options — exactly the fields
// that can change the result payload. Execution-only knobs (worker
// count, block size, schedulers' partition cuts) are canonicalized away:
// the engine returns the identical cover for any of them. Kernelize
// stays IN the key even though a kernelized run finds the same winners,
// because the payload differs observably — the KernelFingerprint
// provenance and the Evaluated/Pruned split — and because a cached plain
// result must never masquerade as a kernelized one (the
// Kernelize-vs-plain distinction the cache tests pin).
//
// Identical resubmissions are answered from the cache without scanning;
// the entry records the producing job id as provenance (CachedFrom).

import (
	"container/list"

	"repro/internal/bitmat"
	"repro/internal/cover"
)

// CacheKey identifies one result-equivalent class of submissions.
type CacheKey struct {
	TumorFP, NormalFP uint64
	Hits              int
	Alpha             float64
	Scheme            cover.Scheme
	Kernelize         bool
	MaxIterations     int
}

// CanonicalKey builds the cache key for a submission. opt must be
// normalized; fields that cannot change the result are dropped —
// including Engine: the sparse and dense scan paths return bit-identical
// covers (the sparse differential suite pins this), so a dense-engine
// submission is answered by a sparse-engine result and vice versa.
func CanonicalKey(tumor, normal *bitmat.Matrix, opt cover.Options) CacheKey {
	return CacheKey{
		TumorFP:       tumor.Fingerprint(),
		NormalFP:      normal.Fingerprint(),
		Hits:          opt.Hits,
		Alpha:         opt.Alpha,
		Scheme:        opt.Scheme,
		Kernelize:     opt.Kernelize,
		MaxIterations: opt.MaxIterations,
	}
}

// CacheStats counts cache traffic.
type CacheStats struct {
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// resultCache is an LRU of terminal job results, in the form finished
// jobs keep them (finished.go). Not self-locking: the
// Service's mutex guards it.
type resultCache struct {
	capacity int
	ll       *list.List // front = most recently used
	entries  map[CacheKey]*list.Element
	stats    CacheStats
}

type cacheEntry struct {
	key    CacheKey
	jobID  string // producing job, for CachedFrom provenance
	result *finalResult
}

// newResultCache builds a cache holding up to capacity entries; capacity
// < 1 disables caching (every Get misses, Put drops).
func newResultCache(capacity int) *resultCache {
	return &resultCache{
		capacity: capacity,
		ll:       list.New(),
		entries:  map[CacheKey]*list.Element{},
	}
}

// Get returns the cached result and its producing job id.
func (c *resultCache) Get(key CacheKey) (*finalResult, string, bool) {
	el, ok := c.entries[key]
	if !ok {
		c.stats.Misses++
		return nil, "", false
	}
	c.stats.Hits++
	c.ll.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	return e.result, e.jobID, true
}

// Put stores a terminal result, evicting the least recently used entry
// when full. Partial results are not cached: a resumable or failed run
// is not the answer to the submission, only a prefix of it.
func (c *resultCache) Put(key CacheKey, jobID string, res *finalResult) {
	if c.capacity < 1 || res == nil || res.partial || res.err != "" {
		return
	}
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).result = res
		el.Value.(*cacheEntry).jobID = jobID
		return
	}
	el := c.ll.PushFront(&cacheEntry{key: key, jobID: jobID, result: res})
	c.entries[key] = el
	if c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.stats.Evictions++
	}
}

// Stats snapshots the counters.
func (c *resultCache) Stats() CacheStats {
	s := c.stats
	s.Entries = c.ll.Len()
	s.Capacity = c.capacity
	return s
}
