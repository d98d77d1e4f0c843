// Plan caching. One process-wide cache (planShards) serves every
// caching engine under an exact-match contract: the key is an FNV-1a
// hash over the histogram bins plus the operating point, and on a hash
// hit the stored bins are compared in full, so a reused plan is
// guaranteed byte-identical to a recomputed one (the "quantization" of
// the histogram key is the identity — anything coarser would trade
// output equality for hit rate). The cache is hash-striped over
// planCacheShards independently locked LRU stripes, so zone fan-outs
// and concurrent engines share warm plans without serializing on one
// mutex: a 16-zone frame walks 16 distinct histograms per frame, which
// thrashed a single 8-entry per-engine LRU end to end.
//
// Plans are immutable once built (the lazy reconstruction LUT is
// published atomically), so sharing them across engines is safe.
package core

import (
	"sync"

	"hebs/internal/driver"
	"hebs/internal/histogram"
)

const (
	// planCacheShards is the stripe count of the process-wide plan
	// cache. A power of two (the shard index is the hash's top bits);
	// 16 stripes keep lock contention negligible for a 16-zone grid
	// fanned out over any realistic worker count.
	planCacheShards = 16

	// planShardCap is each stripe's LRU capacity. 16 × 32 = 512 plans
	// (a few MB at ~4–8 KB per entry) covers many zone grids and
	// tenants' working sets at once; eviction is per-stripe LRU.
	planShardCap = 32
)

type planEntry struct {
	hash     uint64
	bins     [histogram.Levels]int
	n        int
	r        int
	segments int
	drv      *driver.Config
	plan     *Plan
}

// planKeyMatches reports whether e matches the full lookup key —
// operating point first (cheap), then the bins in full (hash-collision
// guard).
func (e *planEntry) planKeyMatches(hash uint64, h *histogram.Histogram, r, segments int, drv *driver.Config) bool {
	if e.hash != hash || e.n != h.N || e.r != r || e.segments != segments || e.drv != drv {
		return false
	}
	return e.bins == h.Bins
}

// planHash is FNV-1a over the bins and the operating point. The driver
// config is compared by pointer identity at lookup and not hashed.
func planHash(h *histogram.Histogram, r, segments int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	x := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			x ^= v & 0xff
			x *= prime64
			v >>= 8
		}
	}
	for _, c := range h.Bins {
		mix(uint64(c))
	}
	mix(uint64(h.N))
	mix(uint64(r))
	mix(uint64(segments))
	return x
}

// planShard is one stripe of the process-wide cache: an LRU. Hits,
// misses and evictions are counted across stripes in the aggregate
// core.plan_cache_* counters.
type planShard struct {
	mu      sync.Mutex
	entries []*planEntry // LRU order: most recently used last
}

// planShards is the process-wide hash-striped plan cache.
type planShards struct {
	shards [planCacheShards]planShard
}

// globalPlanCache is the cache every engine with caching enabled
// uses.
var globalPlanCache = newPlanShards()

func newPlanShards() *planShards {
	gPlanCacheCapacity.Set(planCacheShards * planShardCap)
	return &planShards{}
}

// shardFor picks the stripe from the hash's top bits — FNV-1a's
// multiply only carries entropy upward, so the high bits see every
// input byte while the low bits do not.
func (s *planShards) shardFor(hash uint64) *planShard {
	return &s.shards[hash>>(64-4)&(planCacheShards-1)]
}

func (s *planShards) lookup(hash uint64, h *histogram.Histogram, r, segments int, drv *driver.Config) *Plan {
	sh := s.shardFor(hash)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for i := len(sh.entries) - 1; i >= 0; i-- {
		e := sh.entries[i]
		if !e.planKeyMatches(hash, h, r, segments, drv) {
			continue
		}
		copy(sh.entries[i:], sh.entries[i+1:])
		sh.entries[len(sh.entries)-1] = e
		mPlanCacheHits.Inc()
		return e.plan
	}
	mPlanCacheMisses.Inc()
	return nil
}

func (s *planShards) store(hash uint64, h *histogram.Histogram, r, segments int, drv *driver.Config, plan *Plan) {
	e := &planEntry{
		hash: hash, bins: h.Bins, n: h.N,
		r: r, segments: segments, drv: drv,
		plan: plan,
	}
	sh := s.shardFor(hash)
	sh.mu.Lock()
	if len(sh.entries) >= planShardCap {
		n := copy(sh.entries, sh.entries[1:])
		sh.entries = sh.entries[:n]
		mPlanCacheEvictions.Inc()
		gPlanCacheEntries.Add(-1)
	}
	sh.entries = append(sh.entries, e)
	sh.mu.Unlock()
	gPlanCacheEntries.Add(1)
}
