package hmm

import (
	"math"
	"sort"

	"repro/internal/roadnet"
	"repro/internal/traj"
)

// addShortcuts implements Algorithm 2: for each candidate c_i^k
// (i ≥ 3 in the paper's 1-based indexing), find its best one-hop
// predecessors c_{i-2}^j (Eq. 20), build the shortcut shortest path,
// project x_{i-1} onto it to restore a pseudo-candidate c_{i-1}^u, and
// adopt the shortcut when its score (Eq. 21) beats the current f[c_i^k].
//
// Each layer i runs in three phases. It gathers every attempt (routing
// and projecting u) in (k, j) order, then scores all the layer's
// pseudo-candidates in one observation call and all its shortcut edges
// in two scorePairs calls — c_{i-2}^j → u into point i-1, and
// u → c_i^k into point i — and only then takes the adoption decisions
// in attempt order. No score depends on an earlier adoption in the
// layer, so batching leaves the decisions unchanged. Pseudo-candidates
// get the same degraded-mode observation fallback as layer candidates.
//
// Adopted pseudo-candidates are appended to layer i-1 with their f and
// pre entries, so the backward pass can walk through them.
//
// It returns how many table entries improved (adoptions), how many
// shortcut constructions were examined (attempts), and how many scores
// degraded to the classical fallbacks.
func (m *Matcher) addShortcuts(ct traj.CellTrajectory, layers [][]Candidate, f [][]float64, pre [][]int, steps [][][]float64) (adoptions, attempts, deg int) {
	// A layer's projected attempts: us[q] is the pseudo-candidate of
	// attempt q, leg1[q] its edge c_{i-2}^j → us[q], leg2[q] its edge
	// us[q] → c_i^kk.
	var us []Candidate
	var leg1, leg2 []Pair
	var w1, w2 []float64
	for i := 2; i < len(ct); i++ {
		// A shortcut needs the contiguous chain i-2 → i-1 → i; a dead
		// point anywhere in the window leaves its step table nil (the
		// chain restarted there) and the window is skipped.
		if steps[i] == nil || steps[i-1] == nil {
			continue
		}
		us, leg1, leg2 = us[:0], leg1[:0], leg2[:0]
		nCur := len(layers[i]) // layers may grow behind us; bound to the original set
		for kk := 0; kk < nCur; kk++ {
			cur := &layers[i][kk]
			if cur.pseudo {
				continue
			}
			for _, j := range m.bestOneHopPredecessors(layers, f, steps, i, kk, m.Cfg.Shortcuts) {
				attempts++
				route, ok := m.Router.RouteBetween(layers[i-2][j].Pos(), cur.Pos())
				if !ok || len(route.Segs) == 0 {
					continue
				}
				if u, ok := m.projectOntoRoute(route, ct[i-1]); ok {
					leg1 = append(leg1, Pair{j, len(us)})
					leg2 = append(leg2, Pair{len(us), kk})
					us = append(us, u)
				}
			}
		}
		if len(us) == 0 {
			continue
		}
		m.Obs.Score(ct, i-1, us)
		deg += m.degradeObs(us, nil)
		w1, w2 = resize(w1, len(us)), resize(w2, len(us))
		deg += m.scorePairs(ct, i-1, layers[i-2], us, leg1, w1)
		deg += m.scorePairs(ct, i, us, layers[i], leg2, w2)
		for q := range us {
			j, kk := leg1[q].From, leg2[q].To
			if math.IsNaN(w1[q]) || math.IsNaN(w2[q]) {
				continue
			}
			fPrime := f[i-2][j] + w1[q] + w2[q]
			if fPrime > f[i][kk] {
				adoptions++
				// Materialize the pseudo-candidate in layer i-1.
				layers[i-1] = append(layers[i-1], us[q])
				f[i-1] = append(f[i-1], f[i-2][j]+w1[q])
				pre[i-1] = append(pre[i-1], j)
				f[i][kk] = fPrime
				pre[i][kk] = len(layers[i-1]) - 1
			}
		}
	}
	return adoptions, attempts, deg
}

// bestOneHopPredecessors returns the indices (into layers[i-2]) of the
// top-K grand-predecessors of layers[i][k] by the two-step score of
// Eq. 20, maximizing over the middle candidate l. When every middle
// transition is unreachable (the degenerate unqualified-set case the
// shortcut exists for), it falls back to ranking grand-predecessors by
// their accumulated Viterbi score.
func (m *Matcher) bestOneHopPredecessors(layers [][]Candidate, f [][]float64, steps [][][]float64, i, k, topK int) []int {
	type scored struct {
		j int
		s float64
	}
	var out []scored
	for j := range layers[i-2] {
		if layers[i-2][j].pseudo || j >= len(steps[i-1]) {
			continue
		}
		best := math.Inf(-1)
		// steps only covers the original candidate sets; pseudo rows
		// appended later are beyond its bounds and skipped.
		for l := range steps[i-1][j] {
			w1 := steps[i-1][j][l]
			if math.IsNaN(w1) || l >= len(steps[i]) {
				continue
			}
			w2 := steps[i][l][k]
			if math.IsNaN(w2) {
				continue
			}
			if s := w1 + w2; s > best {
				best = s
			}
		}
		if !math.IsInf(best, -1) {
			out = append(out, scored{j, best})
		}
	}
	if len(out) == 0 {
		for j := range layers[i-2] {
			if !layers[i-2][j].pseudo && !math.IsInf(f[i-2][j], -1) {
				out = append(out, scored{j, f[i-2][j]})
			}
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].s > out[b].s })
	if topK > len(out) {
		topK = len(out)
	}
	idx := make([]int, topK)
	for i := 0; i < topK; i++ {
		idx[i] = out[i].j
	}
	return idx
}

// projectOntoRoute finds the segment of the route closest to the
// trajectory point and returns it as a pseudo-candidate (the projected
// road c_{i-1}^u of §IV-E2).
func (m *Matcher) projectOntoRoute(route roadnet.Route, p traj.CellPoint) (Candidate, bool) {
	best := Candidate{pseudo: true}
	bestD := math.Inf(1)
	for _, sid := range route.Segs {
		proj, frac := m.Net.Project(sid, p.P)
		if d := proj.Dist(p.P); d < bestD {
			bestD = d
			best.Seg = sid
			best.Frac = frac
			best.Proj = proj
			best.Dist = d
		}
	}
	if math.IsInf(bestD, 1) {
		return Candidate{}, false
	}
	return best, true
}
