package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/faultinject"
	"repro/internal/geo"
	"repro/internal/hmm"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// Inference telemetry (internal/obs).
var (
	obsCoreMatches   = obs.Default.Counter("core.matches")
	obsCoreMatchErrs = obs.Default.Counter("core.match.errors")
	obsCoreMatchS    = obs.Default.Histogram("core.match.seconds", obs.LatencyBuckets)
	obsRoadProbHits  = obs.Default.Counter("core.roadprob.cache.hits")
	obsRoadProbMiss  = obs.Default.Counter("core.roadprob.cache.misses")
	obsObsBatched    = obs.Default.Counter("core.obs.batched.rows")
	obsTransBatched  = obs.Default.Counter("core.trans.batched.rows")
	obsCoreSanitized = obs.Default.Counter("hmm.match.sanitized")
)

// fpBatchNaN poisons the batched transition scores with NaN (chaos
// tests for the inline degraded fallback; no-op unless armed).
var fpBatchNaN = faultinject.New("core.trans.nan")

// session holds the per-trajectory inference state: point embeddings,
// context-aware point representations (Eq. 6), the Eq. 9 key cache and
// a memo of per-road trajectory relevance scores (Eq. 10). It
// implements hmm.ObservationModel, and through transAdapter
// hmm.TransitionModel and hmm.TransitionBatchModel.
//
// One session type serves both drivers. An offline session (newSession)
// knows the whole trajectory up front and attends over all of it; a
// streaming session (NewStream) grows as points arrive and is causal —
// point i attends over points 0..i only, and the key cache is rebuilt
// whenever the trajectory has grown (stream.go). Scoring is otherwise
// the same code: every learned score goes through the batched kernels
// — the candidate pool as one pool×d product through the Eq. 7/8 MLPs,
// every pair list the matcher scores (each Viterbi step's k×k fan-out,
// each shortcut layer's pseudo-candidate edges) as one product through
// the Eq. 12 MLP (ScoreBatch), and each shortcut layer's
// pseudo-candidates as one obsScoreBatch (Score).
type session struct {
	m *Model
	// ct is the trajectory seen so far (the whole trajectory offline).
	ct traj.CellTrajectory

	// ws is the offline session's scratch workspace (from the shared nn
	// pool, returned by release). Streaming sessions leave it nil and
	// take a pooled workspace per scoring call (see scratch), so an idle
	// stream holds no scratch memory.
	ws *nn.Workspace

	n    int       // points absorbed
	embW []float64 // n×d raw point embeddings
	ctxW []float64 // n×d context-aware representations (Eq. 6)

	// keys caches the key-side attention state of Eq. 9 over the first
	// keysN point embeddings, shared by every road-probability query.
	keys  *nn.AttKeys
	keysN int

	// roadP memoizes Eq. 10 per segment for the current keys.
	roadP map[roadnet.SegmentID]float64

	// routes is ScoreBatch's per-pair route scratch, reused across calls.
	routes []roadnet.Route

	// obsZ caches, per point, the softmax denominator over the
	// candidate pool (Eq. 7 normalizes P_O across the candidate roads
	// of the point); obsMax the max score for stable exponentials.
	obsZ   []float64
	obsMax []float64

	// span, when non-nil, is the request's match span; observation-
	// scoring wall-clock accumulates into obsT (first call stamped in
	// obsT0) and MatchContext emits it as one "observation" child span.
	// Candidates runs sequentially on the match goroutine, so plain
	// fields suffice.
	span  *obs.Span
	obsT0 time.Time
	obsT  float64
}

// newSession precomputes the trajectory-level state of an offline
// match: every point embedding and Eq. 6 for every point in one batched
// self-attention pass over the whole trajectory. The model must have
// frozen embeddings (RefreshEmbeddings).
func (m *Model) newSession(ct traj.CellTrajectory) *session {
	n, d := len(ct), m.Cfg.Dim
	s := &session{
		m:      m,
		ct:     ct,
		ws:     nn.GetWorkspace(),
		n:      n,
		embW:   make([]float64, n*d),
		roadP:  make(map[roadnet.SegmentID]float64),
		obsZ:   make([]float64, n),
		obsMax: make([]float64, n),
	}
	for i, cp := range ct {
		copy(s.embW[i*d:], m.towerEmb(cp.Tower))
	}
	s.ws.Reset()
	s.ctxW = append([]float64(nil), m.ObsAtt.SelfApplyAllWS(s.ws, s.emb()).W...)
	s.ws.Reset()
	return s
}

// release returns the session's pooled resources. The session must not
// be used afterwards.
func (s *session) release() {
	if s.ws != nil {
		nn.PutWorkspace(s.ws)
		s.ws = nil
	}
}

// scratch returns the workspace for one scoring call; done hands it
// back. Offline that is the session's own workspace, in a stream a
// pooled one.
func (s *session) scratch() *nn.Workspace {
	if s.ws != nil {
		s.ws.Reset()
		return s.ws
	}
	return nn.GetWorkspace()
}

func (s *session) done(ws *nn.Workspace) {
	if ws != s.ws {
		nn.PutWorkspace(ws)
	}
}

// emb views the absorbed point embeddings as an n×d matrix.
func (s *session) emb() *nn.Mat {
	d := s.m.Cfg.Dim
	return &nn.Mat{R: s.n, C: d, W: s.embW[: s.n*d : s.n*d]}
}

// ctxRow returns point i's context-aware representation.
func (s *session) ctxRow(i int) []float64 {
	d := s.m.Cfg.Dim
	return s.ctxW[i*d : (i+1)*d]
}

// ensureKeys (re)builds the Eq. 9 key cache over every point absorbed
// so far. A rebuild clears the road-probability memo: Eq. 10 conditions
// on the whole trajectory context, which just changed. Offline the
// cache is built once.
func (s *session) ensureKeys() {
	if s.keys != nil && s.keysN == s.n {
		return
	}
	s.keys = s.m.TransAtt.PrecomputeKeys(s.emb())
	s.keysN = s.n
	clear(s.roadP)
}

// softmaxP1 is the positive-class probability of a 2-logit softmax,
// arithmetically identical to nn.Softmax(logits)[1].
func softmaxP1(l0, l1 float64) float64 {
	mx := l0
	if l1 > mx {
		mx = l1
	}
	e0 := math.Exp(l0 - mx)
	e1 := math.Exp(l1 - mx)
	return e1 / (e0 + e1)
}

// implicitObs fills imp with Eq. 7 for every candidate of point i: the
// probability that the segment is the true location of the point given
// its context-aware representation, as one P×2d product through the
// Eq. 7 MLP. ws scratch; imp caller-owned.
func (s *session) implicitObs(ws *nn.Workspace, i int, cands []hmm.Candidate, imp []float64) {
	if s.m.Cfg.DisableImplicitObs {
		for j := range imp {
			imp[j] = 0.5
		}
		return
	}
	d := s.m.Cfg.Dim
	ctxRow := s.ctxRow(i)
	feat := ws.Take(len(cands), 2*d)
	for j := range cands {
		row := feat.Row(j)
		copy(row[:d], s.m.segEmb(cands[j].Seg))
		copy(row[d:], ctxRow)
	}
	logits := s.m.applyMLP(ws, s.m.ObsMLP, feat) // P×2
	for j := range cands {
		lr := logits.Row(j)
		imp[j] = softmaxP1(lr[0], lr[1])
	}
}

// obsScoreBatch fills scores with the fused point-road log-odds (Eq. 8's
// MLP) of every candidate of point i: the Eq. 7 batch, then one P×3
// product through the fuse MLP. The explicit distance feature is
// presented as a calibrated Gaussian (the paper batch-normalizes it; a
// Gaussian of the calibrated scale carries the same information in a
// shape the small fuse MLP can use directly, so the classical Eq. 2
// behaviour is the learner's starting point rather than something it
// must rediscover). ws scratch; scores caller-owned.
func (s *session) obsScoreBatch(ws *nn.Workspace, i int, cands []hmm.Candidate, scores []float64) {
	p := len(cands)
	imp := ws.TakeVec(p)
	s.implicitObs(ws, i, cands, imp)
	tower := s.ct[i].Tower
	fuse := ws.Take(p, 3)
	for j := range cands {
		row := fuse.Row(j)
		row[0] = imp[j]
		row[1] = s.m.gaussDist(cands[j].Dist)
		row[2] = s.m.Graph.CoOccurrenceNorm(tower, cands[j].Seg)
	}
	logits := s.m.applyMLP(ws, s.m.ObsFuse, fuse) // P×2
	for j := 0; j < p; j++ {
		lr := logits.Row(j)
		scores[j] = lr[1] - lr[0]
	}
	obsObsBatched.Add(int64(p))
}

// transFeatures assembles the Eq. 12 input for a movement into point i
// along the given route: [implicit route relevance (Eq. 11), length
// similarity, turn similarity]. straight is the hoisted straight-line
// distance between points i-1 and i (identical for every pair of the
// step's fan-out). Every segment of the route must already be in the
// road-probability memo (roadProbFill).
func (s *session) transFeatures(route roadnet.Route, straight float64) [3]float64 {
	pRoute := 0.5
	if !s.m.Cfg.DisableImplicitTrans {
		var sum float64
		for _, sid := range route.Segs {
			sum += s.roadP[sid]
		}
		pRoute = sum / float64(len(route.Segs))
	}
	lenSim, turnSim := routeSims(s.m.Net, route, straight)
	return [3]float64{pRoute, lenSim, turnSim}
}

// routeSims computes the explicit Eq. 12 features of a route: length
// similarity against the straight-line distance and turn similarity
// over consecutive segment bearings.
func routeSims(net *roadnet.Network, route roadnet.Route, straight float64) (lenSim, turnSim float64) {
	lenSim = math.Exp(-math.Abs(straight-route.Dist) / 500)
	var turn float64
	for j := 1; j < len(route.Segs); j++ {
		a := net.Segment(route.Segs[j-1])
		b := net.Segment(route.Segs[j])
		turn += geoAngleDiff(a.Bearing(), b.Bearing())
	}
	turnSim = math.Exp(-turn / math.Pi)
	return lenSim, turnSim
}

// geoAngleDiff is a tiny local wrapper to avoid importing geo for one
// function in this file's hot path.
func geoAngleDiff(a, b float64) float64 {
	d := math.Mod(math.Abs(a-b), 2*math.Pi)
	if d > math.Pi {
		d = 2*math.Pi - d
	}
	return d
}

// candidatePool returns the restricted search space the learned P_O
// ranks (§IV-C "limits the candidate search space by the explicit
// features"): the PoolSize nearest segments (clipped to PoolRadius),
// plus the top co-occurring roads of the point's tower. Distance
// bounds the bulk of the space; historical co-occurrence contributes
// the far-but-relevant roads, and the shortcut structure covers points
// whose truth escapes both (Observation 1).
func (m *Model) candidatePool(ct traj.CellTrajectory, i int) []roadnet.SegmentID {
	pool := m.Net.SegmentsNear(ct[i].P, m.Cfg.PoolSize)
	// Clip the tail beyond PoolRadius (ascending distance order).
	for len(pool) > 1 && m.Net.DistTo(pool[len(pool)-1], ct[i].P) > m.Cfg.PoolRadius {
		pool = pool[:len(pool)-1]
	}
	seen := make(map[roadnet.SegmentID]bool, len(pool))
	for _, sid := range pool {
		seen[sid] = true
	}
	for _, sid := range m.Graph.TopCoRoads(ct[i].Tower, m.Cfg.CoPool) {
		if !seen[sid] {
			seen[sid] = true
			pool = append(pool, sid)
		}
	}
	return pool
}

// poolCandidates materializes a candidate pool as hmm.Candidates with
// their projections and point-to-road distances filled in.
func poolCandidates(net *roadnet.Network, p geo.Point, pool []roadnet.SegmentID) []hmm.Candidate {
	cands := make([]hmm.Candidate, 0, len(pool))
	for _, sid := range pool {
		c := hmm.Candidate{Seg: sid}
		c.Proj, c.Frac = net.Project(sid, p)
		c.Dist = c.Proj.Dist(p)
		cands = append(cands, c)
	}
	return cands
}

// selectTopK softmax-normalizes the fused log-odds over the pool
// (Eq. 7's softmax runs across the candidate roads of the point),
// fills each candidate's Obs, and picks the top-k by learned
// probability with the nearest third by geometric distance always
// retained. It returns the chosen candidates in descending probability
// order plus the pool's (max, normalizer) pair so later pseudo-
// candidate scores stay on the same scale.
func selectTopK(cands []hmm.Candidate, scores []float64, k int) ([]hmm.Candidate, float64, float64) {
	mx := scores[0]
	for _, v := range scores[1:] {
		if v > mx {
			mx = v
		}
	}
	var z float64
	for _, v := range scores {
		z += math.Exp(v - mx)
	}
	for j := range cands {
		cands[j].Obs = math.Exp(scores[j]-mx) / z
	}
	if k >= len(cands) {
		sort.Slice(cands, func(a, b int) bool { return cands[a].Obs > cands[b].Obs })
		return cands, mx, z
	}
	// Mark the nearest k/3 by distance as guaranteed.
	byDist := make([]int, len(cands))
	for i := range byDist {
		byDist[i] = i
	}
	sort.Slice(byDist, func(a, b int) bool { return cands[byDist[a]].Dist < cands[byDist[b]].Dist })
	guaranteed := make(map[int]bool, k/3+1)
	for _, idx := range byDist[:k/3+1] {
		guaranteed[idx] = true
	}
	order := make([]int, len(cands))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ga, gb := guaranteed[order[a]], guaranteed[order[b]]
		if ga != gb {
			return ga
		}
		if cands[order[a]].Obs != cands[order[b]].Obs {
			return cands[order[a]].Obs > cands[order[b]].Obs
		}
		return cands[order[a]].Seg < cands[order[b]].Seg
	})
	out := make([]hmm.Candidate, k)
	for i := 0; i < k; i++ {
		out[i] = cands[order[i]]
	}
	// Present in descending learned-probability order.
	sort.Slice(out, func(a, b int) bool { return out[a].Obs > out[b].Obs })
	return out, mx, z
}

// Candidates implements hmm.ObservationModel: the top-k pool segments
// by learned observation probability — the pool scores softmax-
// normalized per point (Eq. 7's softmax runs over the candidate roads
// of the point, which keeps P_O sharp and comparable across
// candidates) — with the nearest third by geometric distance always
// retained. The distance floor keeps the physical prior intact when
// the learned ranking is uncertain (the paper's P_O likewise folds the
// explicit distance feature into its ranking, §IV-C). The whole pool is
// scored as one batch (obsScoreBatch).
func (s *session) Candidates(ct traj.CellTrajectory, i, k int) []hmm.Candidate {
	s.extend(ct)
	pool := s.m.candidatePool(ct, i)
	cands := poolCandidates(s.m.Net, ct[i].P, pool)
	ws := s.scratch()
	defer s.done(ws)
	scores := ws.TakeVec(len(cands))
	var t time.Time
	if s.span != nil {
		t = time.Now()
		if s.obsT0.IsZero() {
			s.obsT0 = t
		}
	}
	s.obsScoreBatch(ws, i, cands, scores)
	if s.span != nil {
		s.obsT += time.Since(t).Seconds()
	}
	// Across-pool softmax with cached normalizer so shortcut
	// pseudo-candidates score consistently later (selectTopK returns
	// the pool max and normalizer it used).
	out, mx, z := selectTopK(cands, scores, k)
	s.obsMax[i] = mx
	s.obsZ[i] = z
	return out
}

// Score implements hmm.ObservationModel for shortcut pseudo-candidates:
// one obsScoreBatch over all of them, normalized by the cached pool
// softmax of point i (the matcher only scores pseudo-candidates of a
// point whose Candidates it took). A candidate outside the pool can
// score far above the pool max and overflow to +Inf; the matcher
// degrades that like any non-finite P_O.
func (s *session) Score(ct traj.CellTrajectory, i int, cands []hmm.Candidate) {
	s.extend(ct)
	ws := s.scratch()
	defer s.done(ws)
	sc := ws.TakeVec(len(cands))
	s.obsScoreBatch(ws, i, cands, sc)
	for j, v := range sc {
		cands[j].Obs = math.Exp(v-s.obsMax[i]) / s.obsZ[i]
	}
}

// roadProbFill computes every Eq. 10 road probability the routes
// reference that is not yet memoized: one multi-row attention read-out
// (nn.AttKeys.QueryAllWS) plus one R×2d product through the relevance
// MLP — routed through Model.Exec when a scheduler is installed. Rows
// are row-independent, so a memoized value does not depend on which
// batch computed it.
func (s *session) roadProbFill(ws *nn.Workspace, routes []roadnet.Route) {
	if s.m.Cfg.DisableImplicitTrans {
		return
	}
	s.ensureKeys()
	// Unique unmemoized segments, in first-encounter order
	// (deterministic: routes are pair-indexed). A NaN placeholder marks
	// a segment as queued.
	var need []roadnet.SegmentID
	for p := range routes {
		for _, sid := range routes[p].Segs {
			if _, ok := s.roadP[sid]; !ok {
				s.roadP[sid] = math.NaN()
				need = append(need, sid)
			}
		}
	}
	obsRoadProbMiss.Add(int64(len(need)))
	if len(need) == 0 {
		return
	}
	d := s.m.Cfg.Dim
	segs := ws.Take(len(need), d)
	for r, sid := range need {
		copy(segs.Row(r), s.m.segEmb(sid))
	}
	xl := s.keys.QueryAllWS(ws, segs)
	feat := ws.Take(len(need), 2*d)
	for r := range need {
		row := feat.Row(r)
		copy(row[:d], segs.Row(r))
		copy(row[d:], xl.Row(r))
	}
	logits := s.m.applyMLP(ws, s.m.TransMLP, feat)
	for r, sid := range need {
		lr := logits.Row(r)
		s.roadP[sid] = softmaxP1(lr[0], lr[1])
	}
}

// ScoreBatch implements hmm.TransitionBatchModel: every pair of the
// list in a single fused-MLP batch, whether the list is a Viterbi
// step's k×k fan-out or a shortcut layer's pseudo-candidate edges. A
// route per pair comes first, then every road probability the routes
// reference is batch-filled in one shot (roadProbFill), the explicit
// features are assembled from the warm memo, and one n×3 matrix
// product through the Eq. 12 fuse MLP scores every reachable pair at
// once. The straight-line distance into point i is hoisted out of the
// pair loop. Feature rows are pair-indexed and the MLP products are
// row-independent, so a pair's score does not depend on the rest of
// the list. It returns how many pairs fell back to degraded mode.
func (s *session) ScoreBatch(ct traj.CellTrajectory, i int, from, to []hmm.Candidate, pairs []hmm.Pair, out []float64) int {
	s.extend(ct)
	nPairs := len(pairs)
	straight := ct[i-1].P.Dist(ct[i].P)
	if cap(s.routes) < nPairs {
		s.routes = make([]roadnet.Route, nPairs)
	}
	routes := s.routes[:nPairs]

	// Phase 1: a route per pair. out doubles as the reachability mask
	// (NaN = unreachable); an unreachable pair keeps an empty route.
	for p, pr := range pairs {
		route, ok := s.m.Router.RouteBetween(from[pr.From].Pos(), to[pr.To].Pos())
		if !ok || len(route.Segs) == 0 {
			routes[p] = roadnet.Route{}
			out[p] = math.NaN()
			continue
		}
		routes[p] = route
		out[p] = 0
	}

	// Phase 2: batch every unmemoized road probability the step needs,
	// then assemble the explicit features from the warm memo.
	ws := s.scratch()
	defer s.done(ws)
	feat := ws.Take(nPairs, 3)
	s.roadProbFill(ws, routes)
	var hits int
	for p := 0; p < nPairs; p++ {
		row := feat.Row(p)
		if math.IsNaN(out[p]) {
			row[0], row[1], row[2] = 0, 0, 0
			continue
		}
		f := s.transFeatures(routes[p], straight)
		row[0], row[1], row[2] = f[0], f[1], f[2]
		hits += len(routes[p].Segs)
	}
	if !s.m.Cfg.DisableImplicitTrans {
		obsRoadProbHits.Add(int64(hits))
	}

	// Phase 3: one batched product through the fuse MLP. NaN in out is
	// the unreachable sentinel of the batch protocol, so a learned
	// score that itself comes out non-finite (corrupt weights, a NaN
	// that slipped past load validation, fault injection) must be
	// caught here: it degrades to the explicit length-similarity
	// feature — exactly the classical Eq. 3 exponential with β=500,
	// already computed into the feature row — instead of silently
	// reading as "unreachable" and breaking the chain.
	logits := s.m.applyMLP(ws, s.m.TransFuse, feat) // nPairs×2
	g := s.m.transGamma.W.W[0]
	degraded := 0
	for p := 0; p < nPairs; p++ {
		if math.IsNaN(out[p]) {
			continue
		}
		lr := logits.Row(p)
		pr := softmaxP1(lr[0], lr[1])
		if g != 1 {
			pr = math.Pow(pr, g)
		}
		if fpBatchNaN.Fail() {
			pr = math.NaN()
		}
		if math.IsNaN(pr) || math.IsInf(pr, 0) {
			degraded++
			if fb := feat.Row(p)[1]; !math.IsNaN(fb) && !math.IsInf(fb, 0) {
				pr = fb
			} else {
				out[p] = math.NaN()
				continue
			}
		}
		out[p] = pr
	}
	obsTransBatched.Add(int64(nPairs))
	return degraded
}

// transAdapter exposes the session's transition scoring under the
// hmm.TransitionModel method names (the session's own Score is taken by
// hmm.ObservationModel); ScoreBatch is the embedded session's.
type transAdapter struct{ *session }

// Score is the learned transition probability of Eq. 12 for one pair,
// as a one-pair ScoreBatch. The matcher always takes ScoreBatch; Score
// exists because hmm.TransitionModel requires it.
func (t transAdapter) Score(ct traj.CellTrajectory, i int, from, to *hmm.Candidate) (float64, bool) {
	var out [1]float64
	t.ScoreBatch(ct, i, []hmm.Candidate{*from}, []hmm.Candidate{*to}, []hmm.Pair{{}}, out[:])
	return out[0], !math.IsNaN(out[0])
}

// matcher wraps a session in an hmm.Matcher with the model's router.
func (m *Model) matcher(s *session, cfg hmm.Config) *hmm.Matcher {
	return &hmm.Matcher{Net: m.Net, Router: m.Router, Obs: s, Trans: transAdapter{s}, Cfg: cfg}
}

// Match map-matches one cellular trajectory with the trained model.
func (m *Model) Match(ct traj.CellTrajectory) (*hmm.Result, error) {
	return m.MatchContext(context.Background(), ct)
}

// MatchContext is Match with cancellation and a hardened boundary: the
// context is checked between Viterbi steps (a canceled context stops
// the match within one step's work), and a panic anywhere in inference
// — most plausibly an nn shape mismatch from a model whose weights
// disagree with the configuration — is recovered into a wrapped error
// instead of unwinding through the caller.
func (m *Model) MatchContext(ctx context.Context, ct traj.CellTrajectory) (res *hmm.Result, err error) {
	if m.emb == nil {
		obsCoreMatchErrs.Inc()
		return nil, fmt.Errorf("core: model has no embeddings; call RefreshEmbeddings after training or loading")
	}
	if len(ct) == 0 {
		obsCoreMatchErrs.Inc()
		return nil, fmt.Errorf("core: empty trajectory")
	}
	// A sampled request's span arrives on ctx; the match opens a child
	// span, re-wraps the context so the hmm layer parents its stage
	// spans under it, and emits sanitize/session_init/observation
	// children itself. All span calls are nil-safe, so the untraced
	// path pays one context lookup.
	msp := obs.SpanFromContext(ctx).StartChild("match")
	defer msp.End()
	ctx = obs.ContextWithSpan(ctx, msp)
	var spanT time.Time
	if msp != nil {
		spanT = time.Now()
	}
	// Sanitize before the session precomputes per-point state: the
	// session's embeddings, attention keys, and softmax caches are all
	// indexed by trajectory position, so dropping points later (inside
	// the hmm matcher) would misalign them.
	ct, srep, err := traj.Sanitize(ct, m.Cfg.Sanitize)
	if err != nil {
		obsCoreMatchErrs.Inc()
		return nil, fmt.Errorf("core: %w", err)
	}
	if msp != nil {
		msp.ChildAt("sanitize", spanT, time.Since(spanT))
		msp.SetAttr("points", len(ct))
	}
	if srep.Dropped() > 0 {
		obsCoreSanitized.Add(int64(srep.Dropped()))
	}
	if len(ct) == 0 {
		obsCoreMatchErrs.Inc()
		return nil, fmt.Errorf("core: no valid points left after sanitization (dropped %d)", srep.Dropped())
	}
	var start time.Time
	if timed := obs.Default.Enabled(); timed {
		start = time.Now()
		defer func() { obsCoreMatchS.ObserveSince(start) }()
	}
	defer func() {
		if r := recover(); r != nil {
			obsCoreMatchErrs.Inc()
			res, err = nil, fmt.Errorf("core: match panicked (likely a model/config shape mismatch): %v", r)
		}
	}()
	if msp != nil {
		spanT = time.Now()
	}
	sess := m.newSession(ct)
	defer sess.release()
	if msp != nil {
		msp.ChildAt("session_init", spanT, time.Since(spanT))
		sess.span = msp
	}
	matcher := m.matcher(sess, hmm.Config{
		K:         m.Cfg.K,
		Shortcuts: m.Cfg.Shortcuts,
		OnBreak:   m.Cfg.OnBreak,
		// Sanitization already ran above (session state must align
		// with what the matcher sees); do not re-run it inside.
		Sanitize:         traj.SanitizeOff,
		Trace:            m.Cfg.Trace,
		Explain:          m.Cfg.Explain,
		ExplainTopK:      m.Cfg.ExplainTopK,
		ExplainLowMargin: m.Cfg.ExplainLowMargin,
	})
	res, err = matcher.MatchContext(ctx, ct)
	if msp != nil && sess.obsT > 0 {
		msp.ChildAt("observation", sess.obsT0,
			time.Duration(sess.obsT*float64(time.Second)))
	}
	if err != nil {
		obsCoreMatchErrs.Inc()
		return nil, err
	}
	res.Sanitize = srep
	if msp != nil {
		msp.SetAttr("degraded", res.Degraded)
		msp.SetAttr("gaps", len(res.Gaps))
	}
	obsCoreMatches.Inc()
	return res, nil
}
