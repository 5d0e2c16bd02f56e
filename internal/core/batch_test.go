package core

import (
	"math"
	"testing"

	"repro/internal/hmm"
	"repro/internal/nn"
)

// The batched inference paths (obsScoreBatch, ScoreBatch,
// SelfApplyAllWS-built context) must agree with the scalar reference
// scorers (oracle_test.go) within 1e-12 — the scalar paths are what
// the seed shipped, so this pins the batched kernels to the original
// semantics.

const batchTol = 1e-12

// trainedModel trains one small model shared by the equivalence tests.
func trainedModel(t *testing.T) (*Model, *session) {
	t.Helper()
	d := testDataset(t, 14)
	m, err := Train(d, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr := d.Trips[d.Test[0]]
	if len(tr.Cell) < 3 {
		t.Fatalf("test trip too short: %d points", len(tr.Cell))
	}
	sess := m.newSession(tr.Cell)
	t.Cleanup(sess.release)
	return m, sess
}

// TestContextMatchesPerPointAttention: the one-shot batched Eq. 6 pass
// (SelfApplyAllWS) equals running the attention per point.
func TestContextMatchesPerPointAttention(t *testing.T) {
	m, sess := trainedModel(t)
	emb := sess.emb()
	for i := 0; i < len(sess.ct); i++ {
		q := &nn.Mat{R: 1, C: emb.C, W: emb.Row(i)}
		want, _ := m.ObsAtt.Apply(q, emb, emb)
		got := sess.ctxRow(i)
		for j := range want.W {
			if math.Abs(want.W[j]-got[j]) > batchTol {
				t.Fatalf("point %d dim %d: ctx %v vs per-point %v", i, j, got[j], want.W[j])
			}
		}
	}
}

// TestCandidatesMatchScalarObsScore: every candidate probability out of
// the batched pool scoring equals the scalar oracle re-normalized by
// the cached pool softmax, and so does the batched Score that shortcut
// pseudo-candidates go through (here over the whole pool in one call).
func TestCandidatesMatchScalarObsScore(t *testing.T) {
	m, sess := trainedModel(t)
	for i := 0; i < len(sess.ct); i++ {
		cands := sess.Candidates(sess.ct, i, m.Cfg.K)
		if len(cands) == 0 {
			t.Fatalf("point %d: no candidates", i)
		}
		rescored := append([]hmm.Candidate(nil), cands...)
		for j := range rescored {
			rescored[j].Obs = 0
		}
		sess.Score(sess.ct, i, rescored)
		for j, c := range cands {
			sc := oracleObsScore(sess, i, c.Seg, c.Dist)
			want := math.Exp(sc-sess.obsMax[i]) / sess.obsZ[i]
			if math.Abs(want-c.Obs) > batchTol {
				t.Fatalf("point %d seg %d: batched Obs %v vs scalar %v", i, c.Seg, c.Obs, want)
			}
			if got := rescored[j].Obs; math.Abs(want-got) > batchTol {
				t.Fatalf("point %d seg %d: batched Score %v vs scalar %v", i, c.Seg, got, want)
			}
		}
	}
}

// TestScoreBatchMatchesTransScore: the fused transition batch equals
// the pairwise scalar oracle, with NaN exactly where the oracle reports
// unreachable; the one-pair transAdapter.Score agrees too. Two pair
// lists per step: the k×k cross product of a Viterbi step, and a
// shortcut-shaped list (a few pairs, repeated and out-of-order indices,
// not a cross product).
func TestScoreBatchMatchesTransScore(t *testing.T) {
	m, sess := trainedModel(t)
	for i := 1; i < len(sess.ct) && i <= 4; i++ {
		from := sess.Candidates(sess.ct, i-1, m.Cfg.K)
		to := sess.Candidates(sess.ct, i, m.Cfg.K)
		cross := crossPairs(len(from), len(to))
		var shortcut []hmm.Pair
		for q := 0; q < 7; q++ {
			shortcut = append(shortcut, hmm.Pair{From: (3 * q) % len(from), To: len(to) - 1 - q%len(to)})
		}
		shortcut = append(shortcut, shortcut[0])
		for name, pairs := range map[string][]hmm.Pair{"cross": cross, "shortcut": shortcut} {
			out := make([]float64, len(pairs))
			sess.ScoreBatch(sess.ct, i, from, to, pairs, out)
			for p, pr := range pairs {
				got := out[p]
				a, b := &from[pr.From], &to[pr.To]
				want, ok := oracleTransScore(sess, sess.ct, i, a, b)
				one, oneOK := transAdapter{sess}.Score(sess.ct, i, a, b)
				if oneOK != ok {
					t.Fatalf("%s step %d pair %v: one-pair reachability %v, oracle %v", name, i, pr, oneOK, ok)
				}
				if !ok {
					if !math.IsNaN(got) {
						t.Fatalf("%s step %d pair %v: batch %v for unreachable pair", name, i, pr, got)
					}
					continue
				}
				if math.IsNaN(got) || math.Abs(want-got) > batchTol {
					t.Fatalf("%s step %d pair %v: batch %v vs scalar %v", name, i, pr, got, want)
				}
				if one != got {
					t.Fatalf("%s step %d pair %v: one-pair Score %v vs batch %v", name, i, pr, one, got)
				}
			}
		}
	}
}

// crossPairs lists the nFrom×nTo cross product of one Viterbi step.
func crossPairs(nFrom, nTo int) []hmm.Pair {
	pairs := make([]hmm.Pair, 0, nFrom*nTo)
	for j := 0; j < nFrom; j++ {
		for kk := 0; kk < nTo; kk++ {
			pairs = append(pairs, hmm.Pair{From: j, To: kk})
		}
	}
	return pairs
}
