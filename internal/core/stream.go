package core

import (
	"fmt"

	"repro/internal/hmm"
	"repro/internal/nn"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// This file holds what is specific to the learned streaming matcher: a
// session that grows as points arrive, so a trained Model can drive
// hmm.StreamMatcher without knowing the trajectory up front. The
// offline session precomputes Eq. 6 over the whole trajectory; the
// streaming session computes it causally — point i attends over points
// 0..i only, because the future has not been observed yet — and its
// Eq. 9 key cache is rebuilt whenever the trajectory has grown
// (ensureKeys). Every score then goes through the same batched session
// code as an offline match, and hmm.StreamMatcher advances through the
// same step fill and Viterbi recurrence as hmm.Matcher.

// newStreamSession returns an empty causal session.
func (m *Model) newStreamSession() *session {
	return &session{m: m, roadP: make(map[roadnet.SegmentID]float64)}
}

// extend absorbs any trajectory points not yet seen: their raw
// embeddings and causal context-aware representations (attention of
// point i over points 0..i). An offline session has absorbed its whole
// trajectory up front, so extend only records ct there.
func (s *session) extend(ct traj.CellTrajectory) {
	s.ct = ct
	if s.n >= len(ct) {
		return
	}
	d := s.m.Cfg.Dim
	ws := nn.GetWorkspace()
	defer nn.PutWorkspace(ws)
	for i := s.n; i < len(ct); i++ {
		s.embW = append(s.embW, s.m.towerEmb(ct[i].Tower)...)
		kv := &nn.Mat{R: i + 1, C: d, W: s.embW[: (i+1)*d : (i+1)*d]}
		q := &nn.Mat{R: 1, C: d, W: s.embW[i*d : (i+1)*d]}
		ws.Reset()
		out, _ := s.m.ObsAtt.ApplyWS(ws, q, kv, kv)
		s.ctxW = append(s.ctxW, out.W...)
		s.obsZ = append(s.obsZ, 0)
		s.obsMax = append(s.obsMax, 0)
		s.n = i + 1
	}
}

// NewStream returns an online fixed-lag matcher driven by the trained
// learned models: push points as they arrive and receive finalized
// matches Lag points behind real time. Each call creates an
// independent per-trajectory session (streaming LHMM keeps
// per-trajectory context), so construct one StreamMatcher per device
// trajectory. The model's OnBreak and Sanitize policies carry over;
// shortcuts do not apply in streaming mode (they would revise
// already-emitted matches).
//
// The point representations are causal — point i attends over points
// 0..i — so streamed matches can differ from the offline Match result
// for the same trajectory; two streams over the same model and point
// sequence are deterministic and identical.
//
// NewStream panics if the model has no frozen embeddings; call
// RefreshEmbeddings (or Load) first.
func (m *Model) NewStream(lag int) *hmm.StreamMatcher {
	if m.emb == nil {
		panic(fmt.Sprintf("core: NewStream on model %p without embeddings; call RefreshEmbeddings after training or loading", m))
	}
	return hmm.NewStreamMatcher(m.matcher(m.newStreamSession(), hmm.Config{
		K:        m.Cfg.K,
		OnBreak:  m.Cfg.OnBreak,
		Sanitize: m.Cfg.Sanitize,
	}), lag)
}
