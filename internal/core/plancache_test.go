package core

import (
	"sync"
	"testing"

	"hebs/internal/histogram"
)

// histWithSeed builds a deterministic histogram distinct per seed.
func histWithSeed(seed int) *histogram.Histogram {
	h := &histogram.Histogram{}
	for i := range h.Bins {
		h.Bins[i] = (i*31 + seed*97) % 251
		h.N += h.Bins[i]
	}
	return h
}

// TestPlanShardsExactMatch: a stored plan is returned only for the
// exact (bins, N, range, segments, equalizer, clip, driver) key — any
// deviation is a miss, never a wrong plan.
func TestPlanShardsExactMatch(t *testing.T) {
	s := newPlanShards()
	h := histWithSeed(1)
	plan := &Plan{Range: 200}
	hash := planHash(h, 200, 8)
	s.store(hash, h, 200, 8, nil, plan)

	if got := s.lookup(hash, h, 200, 8, nil); got != plan {
		t.Fatal("exact key did not hit")
	}
	if got := s.lookup(planHash(h, 201, 8), h, 201, 8, nil); got != nil {
		t.Error("different range hit")
	}
	if got := s.lookup(planHash(h, 200, 9), h, 200, 9, nil); got != nil {
		t.Error("different segment budget hit")
	}
	h2 := histWithSeed(2)
	if got := s.lookup(planHash(h2, 200, 8), h2, 200, 8, nil); got != nil {
		t.Error("different histogram hit")
	}
	// Same hash, different bins (forced collision): the full-bins
	// compare must reject it.
	h3 := histWithSeed(1)
	h3.Bins[7]++
	h3.Bins[9]--
	if got := s.lookup(hash, h3, 200, 8, nil); got != nil {
		t.Error("forced hash collision returned a foreign plan")
	}
}

// TestPlanShardsEvictionAndMetrics: overfilling one stripe evicts LRU
// entries, counts them on the aggregate eviction counter, and keeps
// the aggregate hit/miss counters and the global entries gauge
// consistent.
func TestPlanShardsEvictionAndMetrics(t *testing.T) {
	s := newPlanShards()
	sh := &s.shards[3]
	hits0, misses0, evict0 := mPlanCacheHits.Value(), mPlanCacheMisses.Value(), mPlanCacheEvictions.Value()
	gauge0 := gPlanCacheEntries.Value()

	// Craft hashes that land on shard 3 (top 4 bits = 3) while keeping
	// per-entry keys distinct via the range argument.
	const shardHash = uint64(3) << 60
	h := histWithSeed(5)
	for i := 0; i < planShardCap+4; i++ {
		s.store(shardHash, h, 2+i, 8, nil, &Plan{Range: 2 + i})
	}
	if got := len(sh.entries); got != planShardCap {
		t.Fatalf("shard holds %d entries, want cap %d", got, planShardCap)
	}
	if got := mPlanCacheEvictions.Value() - evict0; got != 4 {
		t.Errorf("evictions %d, want 4", got)
	}
	// The 4 oldest entries are gone; the newest still hit.
	if got := s.lookup(shardHash, h, 2, 8, nil); got != nil {
		t.Error("evicted entry still served")
	}
	if got := s.lookup(shardHash, h, 2+planShardCap+3, 8, nil); got == nil {
		t.Error("newest entry missing")
	}
	if got := mPlanCacheHits.Value() - hits0; got != 1 {
		t.Errorf("hits %d, want 1", got)
	}
	if got := mPlanCacheMisses.Value() - misses0; got != 1 {
		t.Errorf("misses %d, want 1", got)
	}
	if got := gPlanCacheEntries.Value() - gauge0; got != planShardCap {
		t.Errorf("entries gauge moved by %v, want %d", got, planShardCap)
	}
}

// TestPlanShardsConcurrent hammers every stripe from parallel
// goroutines — the -race leg of the sharded-cache acceptance.
func TestPlanShardsConcurrent(t *testing.T) {
	s := newPlanShards()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				h := histWithSeed(i % 23)
				r := 2 + (i+w)%250
				hash := planHash(h, r, 8)
				if s.lookup(hash, h, r, 8, nil) == nil {
					s.store(hash, h, r, 8, nil, &Plan{Range: r})
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestEngineCacheTiers: a negative PlanCacheSize disables caching; any
// other value joins the process-wide sharded cache (plans flow between
// engines).
func TestEngineCacheTiers(t *testing.T) {
	for _, size := range []int{0, 4} {
		if eng := NewEngine(EngineOptions{PlanCacheSize: size}); eng.planShared != globalPlanCache {
			t.Fatalf("PlanCacheSize %d: engine not on the shared cache", size)
		}
	}
	disabled := NewEngine(EngineOptions{PlanCacheSize: -1})
	if disabled.planShared != nil {
		t.Fatal("negative PlanCacheSize did not disable caching")
	}
}

// TestPlanShardsEntriesGauge: after a concurrent burst of stores that
// overfills every stripe, the entries gauge has moved by exactly the
// change in total stripe occupancy — no store or eviction is lost or
// published out of order.
func TestPlanShardsEntriesGauge(t *testing.T) {
	s := newPlanShards()
	occupancy := func() int {
		n := 0
		for i := range s.shards {
			n += len(s.shards[i].entries)
		}
		return n
	}
	gauge0, occ0 := gPlanCacheEntries.Value(), occupancy()
	evict0 := mPlanCacheEvictions.Value()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := histWithSeed(w)
			for i := 0; i < 4*planShardCap; i++ {
				// Spread stores over every stripe via the hash's top bits.
				hash := uint64(i%planCacheShards)<<60 | uint64(w)<<8 | uint64(i)
				s.store(hash, h, 2+i%250, 8, nil, &Plan{})
			}
		}(w)
	}
	wg.Wait()
	if mPlanCacheEvictions.Value() == evict0 {
		t.Fatal("burst evicted nothing; the test needs evictions")
	}
	if got, want := gPlanCacheEntries.Value()-gauge0, float64(occupancy()-occ0); got != want { //hebslint:allow floateq
		t.Fatalf("entries gauge moved by %v, stripe occupancy by %v", got, want)
	}
}
