package core

import (
	"math"

	"repro/internal/hmm"
	"repro/internal/nn"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// Scalar reference scorers for Eqs. 7, 8, 10 and 12: one candidate or
// one pair at a time through the allocating single-row MLP path, with
// no memo and no workspace. Production code scores only through the
// batched kernels (session.obsScoreBatch, session.ScoreBatch); these
// are the oracle the parity tests compare them against.

// oracleImplicitObs is Eq. 7 for one candidate of point i.
func oracleImplicitObs(s *session, i int, sid roadnet.SegmentID) float64 {
	if s.m.Cfg.DisableImplicitObs {
		return 0.5
	}
	d := s.m.Cfg.Dim
	feat := nn.NewMat(1, 2*d)
	copy(feat.W[:d], s.m.segEmb(sid))
	copy(feat.W[d:], s.ctxRow(i))
	logits := s.m.ObsMLP.Apply(feat)
	return softmaxP1(logits.W[0], logits.W[1])
}

// oracleObsScore is the fused Eq. 8 log-odds for one candidate.
func oracleObsScore(s *session, i int, sid roadnet.SegmentID, dist float64) float64 {
	feat := nn.RowVec(
		oracleImplicitObs(s, i, sid),
		s.m.gaussDist(dist),
		s.m.Graph.CoOccurrenceNorm(s.ct[i].Tower, sid),
	)
	logits := s.m.ObsFuse.Apply(feat)
	return logits.W[1] - logits.W[0]
}

// oracleRoadProb is Eq. 10 for one segment against keys built over the
// session's absorbed points.
func oracleRoadProb(s *session, keys *nn.AttKeys, sid roadnet.SegmentID) float64 {
	d := s.m.Cfg.Dim
	ws := &nn.Workspace{}
	segRow := &nn.Mat{R: 1, C: d, W: s.m.segEmb(sid)}
	xl, _ := keys.QueryWS(ws, segRow)
	feat := nn.NewMat(1, 2*d)
	copy(feat.W[:d], segRow.W)
	copy(feat.W[d:], xl.W)
	logits := s.m.TransMLP.Apply(feat)
	return softmaxP1(logits.W[0], logits.W[1])
}

// oracleTransScore is the learned transition probability of Eq. 12 for
// one pair moving into point i.
func oracleTransScore(s *session, ct traj.CellTrajectory, i int, from, to *hmm.Candidate) (float64, bool) {
	route, ok := s.m.Router.RouteBetween(from.Pos(), to.Pos())
	if !ok || len(route.Segs) == 0 {
		return 0, false
	}
	pRoute := 0.5
	if !s.m.Cfg.DisableImplicitTrans {
		keys := s.m.TransAtt.PrecomputeKeys(s.emb())
		var sum float64
		for _, sid := range route.Segs {
			sum += oracleRoadProb(s, keys, sid)
		}
		pRoute = sum / float64(len(route.Segs))
	}
	lenSim, turnSim := routeSims(s.m.Net, route, ct[i-1].P.Dist(ct[i].P))
	logits := s.m.TransFuse.Apply(nn.RowVec(pRoute, lenSim, turnSim))
	p := softmaxP1(logits.W[0], logits.W[1])
	if g := s.m.transGamma.W.W[0]; g != 1 {
		p = math.Pow(p, g)
	}
	return p, true
}
