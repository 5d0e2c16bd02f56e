package roadnet

import "testing"

// Regression for the eviction policy: a source that keeps getting hit
// must survive a scan of one-shot cold sources. The CLOCK reference
// bit gives re-used entries a second chance, while cold entries (bit
// never set) recycle among themselves.
func TestRouterCacheHotSurvivesColdScan(t *testing.T) {
	n := buildGrid(t, 10, 10)
	r := NewRouter(n, WithCacheSize(8))
	hot := NodeID(0)
	if _, ok := r.NodeDist(hot, 99); !ok {
		t.Fatal("warmup query failed")
	}
	r.NodeDist(hot, 55) // re-use marks the entry referenced

	inCache := func(src NodeID) bool {
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.trees.idx != nil && r.trees.idx[src] > 0
	}

	// Scan three capacities' worth of cold sources, touching the hot
	// one between batches as live traffic would.
	cold := NodeID(1)
	for batch := 0; batch < 6; batch++ {
		for i := 0; i < 4; i++ {
			r.NodeDist(cold, 99)
			cold++
		}
		r.NodeDist(hot, 99)
	}
	if !inCache(hot) {
		t.Fatal("hot source evicted by cold scan")
	}
	// And the cache really was churning: the earliest cold sources must
	// be long gone.
	if inCache(1) && inCache(2) && inCache(3) {
		t.Error("no cold entries were evicted; scan did not churn the cache")
	}
}
