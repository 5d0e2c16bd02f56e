package hmm

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/geo"
	"repro/internal/traj"
)

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

// TestParallelFanoutIdenticalToSequential pins the tentpole guarantee:
// the parallel transition fan-out returns byte-identical matched paths
// to the sequential one, because scheduling only changes who fills a
// pair-indexed table, never the Viterbi recurrence that reads it. Run
// under -race this doubles as the concurrency-soundness test; the
// GOMAXPROCS sweep exercises both the degenerate single-P and the
// multi-P interleavings.
func TestParallelFanoutIdenticalToSequential(t *testing.T) {
	net, r := gridWorld(t, 8, 5)
	walks := randomWalks(6, 7, 42)
	for _, shortcuts := range []int{0, 1} {
		seq := classicMatcher(net, r, 6, shortcuts)
		want := make([]*Result, len(walks))
		for i, ct := range walks {
			res, err := seq.Match(ct)
			if err != nil {
				t.Fatalf("sequential match %d: %v", i, err)
			}
			want[i] = res
		}
		for _, procs := range []int{1, 4} {
			old := runtime.GOMAXPROCS(procs)
			for _, workers := range []int{2, 3, 16} {
				par := classicMatcher(net, r, 6, shortcuts)
				par.Cfg.Parallel = workers
				for i, ct := range walks {
					res, err := par.Match(ct)
					if err != nil {
						t.Fatalf("parallel match %d: %v", i, err)
					}
					if !reflect.DeepEqual(res.Matched, want[i].Matched) {
						t.Fatalf("shortcuts=%d GOMAXPROCS=%d workers=%d walk %d: Matched diverged",
							shortcuts, procs, workers, i)
					}
					if !reflect.DeepEqual(res.Path, want[i].Path) {
						t.Fatalf("shortcuts=%d GOMAXPROCS=%d workers=%d walk %d: Path diverged",
							shortcuts, procs, workers, i)
					}
					if res.Score != want[i].Score {
						t.Fatalf("shortcuts=%d GOMAXPROCS=%d workers=%d walk %d: Score %v vs %v",
							shortcuts, procs, workers, i, res.Score, want[i].Score)
					}
				}
			}
			runtime.GOMAXPROCS(old)
		}
	}
}

// batchEcho wraps ExponentialTransition with a TransitionBatchModel
// implementation, proving the matcher's batch hook reproduces the
// pairwise path exactly.
type batchEcho struct{ ExponentialTransition }

func (b *batchEcho) ScoreBatch(ct traj.CellTrajectory, i int, from, to []Candidate, out []float64) int {
	nTo := len(to)
	for j := range from {
		for kk := range to {
			p, ok := b.Score(ct, i, &from[j], &to[kk])
			if !ok {
				p = math.NaN()
			}
			out[j*nTo+kk] = p
		}
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
