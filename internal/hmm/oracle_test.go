package hmm

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geo"
	"repro/internal/traj"
)

// Reference implementations the batched scoring paths are pinned
// against: the per-pair Eq. 13 step score and the per-attempt shortcut
// pass, each calling the models one candidate or one pair at a time.

// randomWalks builds jittered trajectories wandering across the grid.
func randomWalks(n, steps int, seed int64) []traj.CellTrajectory {
	rng := rand.New(rand.NewSource(seed))
	out := make([]traj.CellTrajectory, n)
	for i := range out {
		x, y := 100+rng.Float64()*400, 100+rng.Float64()*200
		pts := make([]geo.Point, steps)
		for s := range pts {
			x += rng.Float64()*160 - 40
			y += rng.Float64()*120 - 60
			pts[s] = geo.Pt(x, y)
		}
		out[i] = trajAlong(pts...)
	}
	return out
}

// batchEcho wraps ExponentialTransition with a TransitionBatchModel
// implementation, proving the matcher's batch hook reproduces the
// pairwise path exactly.
type batchEcho struct{ ExponentialTransition }

func (b *batchEcho) ScoreBatch(ct traj.CellTrajectory, i int, from, to []Candidate, pairs []Pair, out []float64) int {
	for p, pr := range pairs {
		v, ok := b.Score(ct, i, &from[pr.From], &to[pr.To])
		if !ok {
			v = math.NaN()
		}
		out[p] = v
	}
	return 0
}

func TestBatchModelIdenticalToPairwise(t *testing.T) {
	net, r := gridWorld(t, 8, 5)
	walks := randomWalks(4, 6, 7)
	pair := classicMatcher(net, r, 6, 1)
	batch := classicMatcher(net, r, 6, 1)
	batch.Trans = &batchEcho{ExponentialTransition{Router: r, Beta: 200}}
	for i, ct := range walks {
		want, err := pair.Match(ct)
		if err != nil {
			t.Fatalf("pairwise match %d: %v", i, err)
		}
		got, err := batch.Match(ct)
		if err != nil {
			t.Fatalf("batch match %d: %v", i, err)
		}
		if !reflect.DeepEqual(got.Matched, want.Matched) || got.Score != want.Score {
			t.Fatalf("walk %d: batch-model result diverged from pairwise", i)
		}
	}
}

// oracleStepScore is Eq. 13 for one pair through the pairwise
// TransitionModel.Score, with the Eq. 3 fallback for a non-finite
// probability; deg counts fallbacks.
func oracleStepScore(m *Matcher, ct traj.CellTrajectory, i int, from, to *Candidate, deg *int) (float64, bool) {
	pt, ok := m.Trans.Score(ct, i, from, to)
	if !ok {
		return 0, false
	}
	if math.IsNaN(pt) || math.IsInf(pt, 0) {
		*deg++
		if pt, ok = m.fallbackTrans(ct, i, from, to); !ok {
			return 0, false
		}
	}
	return m.accum(pt * to.Obs), true
}

// oracleAddShortcuts is Algorithm 2 one attempt at a time: route,
// project, score the pseudo-candidate, score both shortcut edges and
// decide, before moving on to the next attempt.
func oracleAddShortcuts(m *Matcher, ct traj.CellTrajectory, layers [][]Candidate, f [][]float64, pre [][]int, steps [][][]float64) (adoptions, attempts, deg int) {
	for i := 2; i < len(ct); i++ {
		if steps[i] == nil || steps[i-1] == nil {
			continue
		}
		nCur := len(layers[i])
		for kk := 0; kk < nCur; kk++ {
			cur := &layers[i][kk]
			if cur.pseudo {
				continue
			}
			for _, j := range m.bestOneHopPredecessors(layers, f, steps, i, kk, m.Cfg.Shortcuts) {
				attempts++
				grand := &layers[i-2][j]
				route, ok := m.Router.RouteBetween(grand.Pos(), cur.Pos())
				if !ok || len(route.Segs) == 0 {
					continue
				}
				u, ok := m.projectOntoRoute(route, ct[i-1])
				if !ok {
					continue
				}
				one := []Candidate{u}
				m.Obs.Score(ct, i-1, one)
				deg += m.degradeObs(one, nil)
				u = one[0]
				w1, ok1 := oracleStepScore(m, ct, i-1, grand, &u, &deg)
				w2, ok2 := oracleStepScore(m, ct, i, &u, cur, &deg)
				if !ok1 || !ok2 {
					continue
				}
				fPrime := f[i-2][j] + w1 + w2
				if fPrime > f[i][kk] {
					adoptions++
					layers[i-1] = append(layers[i-1], u)
					f[i-1] = append(f[i-1], f[i-2][j]+w1)
					pre[i-1] = append(pre[i-1], j)
					f[i][kk] = fPrime
					pre[i][kk] = len(layers[i-1]) - 1
				}
			}
		}
	}
	return adoptions, attempts, deg
}

// forwardState runs candidate preparation and the Viterbi forward pass
// of a trajectory with no dead points: the state the shortcut pass
// starts from.
func forwardState(t *testing.T, m *Matcher, ct traj.CellTrajectory) ([][]Candidate, [][]float64, [][]int, [][][]float64) {
	t.Helper()
	n := len(ct)
	layers := make([][]Candidate, n)
	f := make([][]float64, n)
	pre := make([][]int, n)
	steps := make([][][]float64, n)
	for i := range ct {
		if layers[i] = m.Obs.Candidates(ct, i, m.Cfg.K); len(layers[i]) == 0 {
			t.Fatalf("point %d has no candidates", i)
		}
		if i == 0 {
			f[0], pre[0], _, _ = m.advance(nil, layers[0], nil)
			continue
		}
		steps[i] = stepTable(nil, len(layers[i-1]), len(layers[i]))
		m.fillSteps(ct, i, layers[i-1], layers[i], steps[i])
		f[i], pre[i], _, _ = m.advance(f[i-1], layers[i], steps[i])
	}
	return layers, f, pre, steps
}

// cloneState deep-copies the tables the shortcut pass mutates.
func cloneState(layers [][]Candidate, f [][]float64, pre [][]int) ([][]Candidate, [][]float64, [][]int) {
	l2 := make([][]Candidate, len(layers))
	f2 := make([][]float64, len(f))
	p2 := make([][]int, len(pre))
	for i := range layers {
		l2[i] = append([]Candidate(nil), layers[i]...)
		f2[i] = append([]float64(nil), f[i]...)
		p2[i] = append([]int(nil), pre[i]...)
	}
	return l2, f2, p2
}

// TestShortcutPassMatchesOracle pins the batched shortcut pass (one
// observation call and two scorePairs calls per layer) to the
// per-attempt oracle: identical layers (pseudo-candidates included), f
// and pre tables bit for bit, and identical adoption, attempt and
// degraded counts, for pairwise and batch transition models under both
// scorings.
func TestShortcutPassMatchesOracle(t *testing.T) {
	net, r := gridWorld(t, 8, 5)
	walks := randomWalks(8, 7, 42)
	totalAdoptions := 0
	for _, shortcuts := range []int{1, 4} {
		for _, scoring := range []Scoring{ScoreSum, ScoreLogProd} {
			for _, batched := range []bool{false, true} {
				m := classicMatcher(net, r, 6, shortcuts)
				m.Cfg.Scoring = scoring
				if batched {
					m.Trans = &batchEcho{ExponentialTransition{Router: r, Beta: 200}}
				}
				for w, ct := range walks {
					layers, f, pre, steps := forwardState(t, m, ct)
					wl, wf, wp := cloneState(layers, f, pre)
					wantAdopt, wantAttempts, wantDeg := oracleAddShortcuts(m, ct, wl, wf, wp, steps)
					adopt, attempts, deg := m.addShortcuts(ct, layers, f, pre, steps)
					name := fmt.Sprintf("shortcuts %d scoring %d batched %v walk %d", shortcuts, scoring, batched, w)
					if adopt != wantAdopt || attempts != wantAttempts || deg != wantDeg {
						t.Fatalf("%s: adoptions/attempts/degraded %d/%d/%d, oracle %d/%d/%d",
							name, adopt, attempts, deg, wantAdopt, wantAttempts, wantDeg)
					}
					if !reflect.DeepEqual(layers, wl) {
						t.Fatalf("%s: layers diverged from the oracle", name)
					}
					if !reflect.DeepEqual(pre, wp) {
						t.Fatalf("%s: pre diverged from the oracle", name)
					}
					for i := range f {
						if len(f[i]) != len(wf[i]) {
							t.Fatalf("%s: len f[%d] = %d, oracle %d", name, i, len(f[i]), len(wf[i]))
						}
						for j := range f[i] {
							if math.Float64bits(f[i][j]) != math.Float64bits(wf[i][j]) {
								t.Fatalf("%s: f[%d][%d] = %v, oracle %v", name, i, j, f[i][j], wf[i][j])
							}
						}
					}
					totalAdoptions += adopt
				}
			}
		}
	}
	if totalAdoptions == 0 {
		t.Fatal("no shortcut was adopted on any walk; the comparison never reached a decision")
	}
}
