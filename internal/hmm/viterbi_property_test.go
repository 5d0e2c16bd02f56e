package hmm

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
	"repro/internal/traj"
)

// bruteBestScore enumerates every candidate path (no shortcuts, no
// restarts) and returns the maximum Eq. 14 score, mirroring the
// matcher's scoring exactly: sum over steps of P_T·P_O with the first
// point contributing its observation.
func bruteBestScore(m *Matcher, ct traj.CellTrajectory, layers [][]Candidate) float64 {
	best := math.Inf(-1)
	idx := make([]int, len(layers))
	var rec func(i int, score float64)
	rec = func(i int, score float64) {
		if i == len(layers) {
			if score > best {
				best = score
			}
			return
		}
		for j := range layers[i] {
			idx[i] = j
			if i == 0 {
				rec(i+1, layers[0][j].Obs)
				continue
			}
			w, ok := m.scorePair(ct, i, layers[i-1], layers[i], Pair{idx[i-1], j})
			if !ok {
				continue
			}
			rec(i+1, score+w)
		}
	}
	rec(0, 0)
	return best
}

// TestViterbiOptimality cross-checks the dynamic program against brute
// force on small random instances: with shortcuts disabled and all
// transitions reachable, Viterbi must return the globally best
// candidate path score.
func TestViterbiOptimality(t *testing.T) {
	net, r := gridWorld(t, 6, 6)
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(3)
		ct := make(traj.CellTrajectory, n)
		// A wandering track inside the grid.
		x, y := 100+rng.Float64()*200, 100+rng.Float64()*200
		for i := 0; i < n; i++ {
			x += rng.Float64() * 120
			y += rng.Float64()*160 - 80
			ct[i] = traj.CellPoint{Tower: -1, P: geo.Pt(x, y), T: float64(i) * 60}
		}
		m := classicMatcher(net, r, 3, 0)
		res, err := m.Match(ct)
		if err != nil {
			t.Fatal(err)
		}
		// Rebuild the same candidate layers the matcher used.
		layers := make([][]Candidate, n)
		reachableEverywhere := true
		for i := range ct {
			layers[i] = m.Obs.Candidates(ct, i, 3)
		}
		for i := 1; i < n && reachableEverywhere; i++ {
			for j := range layers[i-1] {
				for k := range layers[i] {
					if _, ok := m.scorePair(ct, i, layers[i-1], layers[i], Pair{j, k}); !ok {
						reachableEverywhere = false
					}
				}
			}
		}
		if !reachableEverywhere {
			continue // restarts make brute force incomparable
		}
		want := bruteBestScore(m, ct, layers)
		if math.Abs(res.Score-want) > 1e-9 {
			t.Fatalf("trial %d: Viterbi score %v, brute force %v", trial, res.Score, want)
		}
	}
}

// TestShortcutNeverLowersScore pins the invariant of Algorithm 2: the
// shortcut pass only replaces table entries with strictly higher
// scores, so enabling shortcuts can never reduce the final path score.
func TestShortcutNeverLowersScore(t *testing.T) {
	net, r := gridWorld(t, 7, 7)
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(4)
		ct := make(traj.CellTrajectory, n)
		x, y := 100.0, 300.0
		for i := 0; i < n; i++ {
			x += 60 + rng.Float64()*100
			y += rng.Float64()*300 - 150
			ct[i] = traj.CellPoint{Tower: -1, P: geo.Pt(x, y), T: float64(i) * 60}
		}
		without := classicMatcher(net, r, 3, 0)
		with := classicMatcher(net, r, 3, 2)
		a, err := without.Match(ct)
		if err != nil {
			t.Fatal(err)
		}
		b, err := with.Match(ct)
		if err != nil {
			t.Fatal(err)
		}
		if b.Score < a.Score-1e-9 {
			t.Fatalf("trial %d: shortcuts lowered score %v -> %v", trial, a.Score, b.Score)
		}
	}
}
