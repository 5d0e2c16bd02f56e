package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/hmm"
	"repro/internal/metrics"
	"repro/internal/roadnet"
	"repro/internal/serve"
)

// pushArm is what one batch of streaming sessions measured.
type pushArm struct {
	lat      []float64 // per-push latency, ms
	firstQ   []float64 // latencies of each session's first quarter of pushes
	lastQ    []float64 // and of its last quarter
	cmf      []float64 // per trip of every fully pushed session, see addSession
	sessions int
	snapBPP  []float64 // snapshot bytes per pushed point, per session
}

// setPushMetrics reports the end-to-end streaming metrics of an arm.
func (r *run) setPushMetrics(a pushArm) {
	fmt.Fprintf(os.Stderr, "perfbench: %d timed pushes in %d sessions\n", len(a.lat), a.sessions)
	r.set("push_p50_ms", quantile(a.lat, 0.50))
	r.set("push_p90_ms", quantile(a.lat, 0.90))
	r.set("push_growth_x", a.growth())
	r.set("stream_cmf50", mean(a.cmf))
}

// addSession records a fully pushed session's latencies, and the
// CMF50 of its matched path against each trip chained into it.
func (a *pushArm) addSession(lat []float64, net *roadnet.Network, path []roadnet.SegmentID, s *session) {
	q := len(lat) / 4
	a.firstQ = append(a.firstQ, lat[:q]...)
	a.lastQ = append(a.lastQ, lat[len(lat)-q:]...)
	for _, tr := range s.trips {
		a.cmf = append(a.cmf, metrics.EvalPath(net, path, tr.Path, 50).CMF)
	}
	a.sessions++
}

// growth is the median push latency over the sessions' last quarters
// divided by the median over their first quarters.
func (a *pushArm) growth() float64 { return median(a.lastQ) / median(a.firstQ) }

// pushSession streams a session point by point through sm, one push per
// point, then flushes it. snapshot, when set, sizes the session's
// durable snapshot before the flush.
func (r *run) pushSession(a *pushArm, sm *hmm.StreamMatcher, s *session, net *roadnet.Network, snapshot func(*hmm.StreamMatcher) (int, error)) {
	req := r.spans.id()
	per := make([]float64, 0, len(s.pts))
	for _, p := range s.pts {
		start := time.Now()
		_, err := sm.Push(p)
		end := time.Now()
		if !r.op(err) {
			a.lat = append(a.lat, per...)
			return
		}
		r.spans.add(span{Name: "hmm.StreamMatcher.Push", Req: req}, start, end)
		per = append(per, ms(end.Sub(start)))
	}
	a.lat = append(a.lat, per...)
	if snapshot != nil {
		if n, err := snapshot(sm); r.op(err) {
			a.snapBPP = append(a.snapBPP, float64(n)/float64(len(per)))
		}
	}
	sm.Flush()
	a.addSession(per, net, sm.Path(), s)
}

// interleave spreads n streaming sessions evenly over the window and
// fills the time between them with closed-loop matches, so both arms
// sample the whole window.
func interleave(window time.Duration, n int, push func(i int), match func(until time.Time)) {
	begin := time.Now()
	for i := 0; i < n; i++ {
		push(i)
		match(begin.Add(window * time.Duration(i+1) / time.Duration(n)))
	}
}

// streamResponse is the finish-time MatchResponse of a flushed stream,
// built the way the server builds the body of
// POST /v1/sessions/{id}/finish.
func streamResponse(sm *hmm.StreamMatcher) serve.MatchResponse {
	matched, dead := sm.Matched(), sm.Dead()
	out := serve.MatchResponse{
		Matched:       make([]serve.MatchedPoint, len(matched)),
		Degraded:      sm.Degraded(),
		DroppedPoints: sm.Sanitize().Dropped(),
	}
	for i := range matched {
		if i < len(dead) && dead[i] {
			out.Matched[i] = serve.MatchedPoint{Dead: true}
			continue
		}
		c := &matched[i]
		out.Matched[i] = serve.MatchedPoint{
			Seg: int(c.Seg), Frac: c.Frac, X: c.Proj.X, Y: c.Proj.Y, Dist: c.Dist, Obs: finite(c.Obs),
		}
	}
	for _, s := range sm.Path() {
		out.Path = append(out.Path, int(s))
	}
	for _, g := range sm.Gaps() {
		out.Gaps = append(out.Gaps, serve.GapJSON{From: g.From, To: g.To, Reason: g.Reason.String()})
	}
	return out
}

// finite maps NaN/Inf to 0, as the wire encoder does.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
