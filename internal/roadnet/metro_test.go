package roadnet_test

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/roadnet"
	"repro/internal/synth"
)

// The synthetic metro city at scale 0.03 (~1,600 nodes) is the network
// the classical cold-routing benchmark matches on.
var metro struct {
	once sync.Once
	net  *roadnet.Network
	err  error
}

func metroNet(tb testing.TB) *roadnet.Network {
	tb.Helper()
	metro.once.Do(func() {
		cfg := synth.SyntheticMetro(0.03, 0)
		city, err := synth.GenerateCity(cfg.City, rand.New(rand.NewSource(cfg.Seed)))
		if err != nil {
			metro.err = err
			return
		}
		metro.net = city.Net
	})
	if metro.err != nil {
		tb.Fatal(metro.err)
	}
	return metro.net
}

func TestRouterMatchesOracleMetro(t *testing.T) {
	n := metroNet(t)
	// Every pair at the default bound; every 8th source under the tight
	// bounds, which leave most of the city unreachable.
	if u := roadnet.CheckRouterAgainstOracle(t, n, 30000, 1); u != 0 {
		t.Logf("%d pairs unreachable at the default bound", u)
	}
	for _, maxDist := range []float64{2500, 700} {
		if u := roadnet.CheckRouterAgainstOracle(t, n, maxDist, 8); u == 0 {
			t.Errorf("maxDist %g left every pair reachable; the bound is not exercised", maxDist)
		}
	}
}

// BenchmarkRouterColdTree measures one first-visit single-source tree
// build on the metro city: the cost that dominates matching on a
// freshly started router.
func BenchmarkRouterColdTree(b *testing.B) {
	n := metroNet(b)
	r := roadnet.NewRouter(n, roadnet.WithCacheSize(0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := roadnet.NodeID(i * 7919 % n.NumNodes())
		r.NodeDist(src, roadnet.NodeID((i+1)*104729%n.NumNodes()))
	}
}
