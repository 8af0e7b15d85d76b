package service

import (
	"testing"

	"repro/internal/bitmat"
	"repro/internal/cover"
)

// testMatrices builds a small deterministic tumor/normal pair; variant
// perturbs one bit so fingerprints differ between variants.
func testMatrices(variant int) (*bitmat.Matrix, *bitmat.Matrix) {
	tumor := bitmat.New(8, 16)
	normal := bitmat.New(8, 12)
	for g := 0; g < 8; g++ {
		for s := 0; s < 16; s++ {
			if (g*7+s*3+variant)%5 == 0 {
				tumor.Set(g, s)
			}
		}
		for s := 0; s < 12; s++ {
			if (g*5+s*11)%7 == 0 {
				normal.Set(g, s)
			}
		}
	}
	return tumor, normal
}

func normalizedOpt(t *testing.T, opt cover.Options) cover.Options {
	t.Helper()
	opt.Hits = 2
	norm, err := opt.Normalized()
	if err != nil {
		t.Fatalf("Normalized: %v", err)
	}
	return norm
}

// TestCanonicalKeyDropsExecutionKnobs: worker count and scheduler cannot
// change the result, so they must not fragment the cache.
func TestCanonicalKeyDropsExecutionKnobs(t *testing.T) {
	tumor, normal := testMatrices(0)
	base := normalizedOpt(t, cover.Options{Workers: 1, Scheduler: cover.EquiArea})
	exec := normalizedOpt(t, cover.Options{Workers: 7, Scheduler: cover.EquiDistance})
	if CanonicalKey(tumor, normal, base) != CanonicalKey(tumor, normal, exec) {
		t.Fatal("execution-only knobs (workers, scheduler) changed the cache key")
	}
}

// TestCanonicalKeyDropsEngine: the scan engine returns bit-identical
// covers either way, so dense and sparse submissions of the same cohort
// share one cache entry.
func TestCanonicalKeyDropsEngine(t *testing.T) {
	tumor, normal := testMatrices(0)
	norm := func(e cover.Engine) cover.Options {
		opt, err := cover.Options{Hits: 3, Engine: e}.Normalized()
		if err != nil {
			t.Fatalf("Normalized: %v", err)
		}
		return opt
	}
	dense := CanonicalKey(tumor, normal, norm(cover.EngineDense))
	sparse := CanonicalKey(tumor, normal, norm(cover.EngineSparse))
	auto := CanonicalKey(tumor, normal, norm(cover.EngineAuto))
	if dense != sparse || dense != auto {
		t.Fatal("engine selection fragmented the cache key")
	}
}

// TestCanonicalKeySeparatesKernelizeAndInputs: Kernelize changes the
// observable payload (provenance fingerprint, Evaluated/Pruned split), so
// kernelized and plain runs must occupy distinct entries; and different
// matrices must never collide.
func TestCanonicalKeySeparatesKernelizeAndInputs(t *testing.T) {
	tumor, normal := testMatrices(0)
	plain := normalizedOpt(t, cover.Options{})
	kern := normalizedOpt(t, cover.Options{Kernelize: true})
	if CanonicalKey(tumor, normal, plain) == CanonicalKey(tumor, normal, kern) {
		t.Fatal("kernelized and plain submissions share a cache key")
	}
	tumor2, normal2 := testMatrices(1)
	if CanonicalKey(tumor, normal, plain) == CanonicalKey(tumor2, normal2, plain) {
		t.Fatal("different cohorts share a cache key")
	}
	if tumor.Fingerprint() == tumor2.Fingerprint() {
		t.Fatal("test matrices do not differ; the collision check is vacuous")
	}
}

func completeResult(fp uint64) *finalResult {
	return compactResult(&JobResult{Covered: 16, Evaluated: 28, TumorFingerprint: fp})
}

// TestCacheHitMissEviction drives the LRU through its lifecycle.
func TestCacheHitMissEviction(t *testing.T) {
	c := newResultCache(2)
	k1 := CacheKey{TumorFP: 1}
	k2 := CacheKey{TumorFP: 2}
	k3 := CacheKey{TumorFP: 3}

	if _, _, ok := c.Get(k1); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put(k1, "job-1", completeResult(1))
	c.Put(k2, "job-2", completeResult(2))
	res, from, ok := c.Get(k1)
	if !ok || from != "job-1" || res.tumorFP != 1 {
		t.Fatalf("Get(k1) = %+v from %q ok=%v", res, from, ok)
	}
	// k1 is now most recently used; inserting k3 must evict k2.
	c.Put(k3, "job-3", completeResult(3))
	if _, _, ok := c.Get(k2); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, _, ok := c.Get(k1); !ok {
		t.Fatal("recently used entry was evicted")
	}
	if _, _, ok := c.Get(k3); !ok {
		t.Fatal("newest entry missing")
	}
	st := c.Stats()
	if st.Entries != 2 || st.Capacity != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 entries, capacity 2, 1 eviction", st)
	}
	if st.Hits != 3 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 3 hits / 2 misses", st)
	}
}

// TestCacheRejectsIncompleteResults: partial and failed runs are a prefix
// of the answer, not the answer.
func TestCacheRejectsIncompleteResults(t *testing.T) {
	c := newResultCache(4)
	c.Put(CacheKey{TumorFP: 1}, "job-1", compactResult(&JobResult{Partial: true}))
	c.Put(CacheKey{TumorFP: 2}, "job-2", compactResult(&JobResult{Error: "boom"}))
	c.Put(CacheKey{TumorFP: 3}, "job-3", nil)
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("cache accepted %d incomplete results", st.Entries)
	}
}

// TestCacheDisabled: non-positive capacity turns the cache off entirely.
func TestCacheDisabled(t *testing.T) {
	c := newResultCache(-1)
	c.Put(CacheKey{TumorFP: 1}, "job-1", completeResult(1))
	if _, _, ok := c.Get(CacheKey{TumorFP: 1}); ok {
		t.Fatal("disabled cache returned a hit")
	}
}
