package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/hmm"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// matchArm is what a closed loop of whole-trip matches measured.
type matchArm struct {
	lat    []float64 // per-trip latency, ms
	points int
	wallS  float64
	opS    float64 // summed match time, s
	allocB uint64
}

func (a matchArm) pointsPerS() float64 { return float64(a.points) / a.wallS }

// setMatchMetrics reports the end-to-end whole-trip metrics of an arm.
func (r *run) setMatchMetrics(a matchArm) {
	fmt.Fprintf(os.Stderr, "perfbench: %d timed matches, %d points in %.1fs\n", len(a.lat), a.points, a.wallS)
	r.set("match_points_per_s", a.pointsPerS())
	r.set("match_p50_ms", quantile(a.lat, 0.50))
	r.set("match_p90_ms", quantile(a.lat, 0.90))
	r.set("alloc_kb_per_point", float64(a.allocB)/1024/float64(a.points))
}

// matchLoop runs closed-loop whole-trip matches from one goroutine. It
// matches the trips in order, wrapping around, and keeps its place
// across calls to run. Each result's digest must equal ref[k], the
// digest of an earlier match of trip k; a zero entry is filled instead.
type matchLoop struct {
	r     *run
	match func(k int, ct traj.CellTrajectory) (*hmm.Result, error)
	trips []traj.Trip
	ref   [][32]byte
	next  int
	arm   matchArm
}

func (r *run) newMatchLoop(trips []traj.Trip, ref [][32]byte, match func(k int, ct traj.CellTrajectory) (*hmm.Result, error)) *matchLoop {
	return &matchLoop{r: r, match: match, trips: trips, ref: ref}
}

// run matches until the deadline, at least one trip, and adds what it
// measured to l.arm.
func (l *matchLoop) run(until time.Time) {
	a := &l.arm
	alloc0 := totalAlloc()
	begin := time.Now()
	for first := true; first || time.Now().Before(until); first = false {
		k := l.next % len(l.trips)
		l.next++
		ct := l.trips[k].Cell
		start := time.Now()
		res, err := l.match(k, ct)
		d := time.Since(start)
		if !l.r.op(err) {
			continue
		}
		a.lat = append(a.lat, ms(d))
		a.opS += d.Seconds()
		a.points += len(ct)
		if dg := resultDigest(res); l.ref[k] == ([32]byte{}) {
			l.ref[k] = dg
		} else if dg != l.ref[k] {
			l.r.mismatch("trip %d: match output differs from its first match", k)
		}
	}
	a.wallS += time.Since(begin).Seconds()
	a.allocB += totalAlloc() - alloc0
}

// setAccuracy reports the paper's metrics, averaged over trips.
func (r *run) setAccuracy(acc *metrics.Accum) {
	s := acc.Summary()
	r.set("precision", s.Precision)
	r.set("recall", s.Recall)
	r.set("cmf50", s.CMF)
}

// tracedWindow is the traced part of a run: the program's counters
// are recorded from beginTrace to end, and Result.Trace stage timings
// are summed into stages.
type tracedWindow struct {
	before obs.Snapshot
	stages stageTotals
}

func beginTrace() *tracedWindow {
	obs.Default.Enable()
	return &tracedWindow{before: obs.Default.Snapshot()}
}

func (w *tracedWindow) end() obsDelta {
	return snapshotDelta(w.before, obs.Default.Snapshot())
}

// setOverhead reports how much slower the traced half ran.
func (r *run) setOverhead(untraced, traced matchArm) {
	r.set("trace.overhead_share", 1-traced.pointsPerS()/untraced.pointsPerS())
}

// setLayerProbes times traj.Sanitize per trip and
// Network.SegmentsNear per point on the workload, outside any match.
func (r *run) setLayerProbes(net *roadnet.Network, trips []traj.Trip, k int) {
	var san time.Duration
	for i := range trips {
		start := time.Now()
		_, _, err := traj.Sanitize(trips[i].Cell, traj.SanitizeStrict)
		end := time.Now()
		r.op(err)
		san += end.Sub(start)
		r.spans.add(span{Name: "traj.Sanitize", Req: r.spans.id()}, start, end)
	}
	var near time.Duration
	pts := 0
	for i := range trips {
		req := r.spans.id()
		for _, p := range trips[i].Cell {
			start := time.Now()
			_ = net.SegmentsNear(p.P, k)
			end := time.Now()
			near += end.Sub(start)
			pts++
			r.spans.add(span{Name: "roadnet.SegmentsNear", Req: req}, start, end)
		}
	}
	r.set("traj.sanitize_us_per_trip", float64(san.Nanoseconds())/1e3/float64(len(trips)))
	r.set("roadnet.near_us_per_point", float64(near.Nanoseconds())/1e3/float64(pts))
}

// runOffline is the offline-lhmm workload: core.Model.Match over
// held-out hangzhou trips from one goroutine after a warm-up pass,
// plus an in-process streaming arm over chained trips.
func runOffline(r *run) error {
	var m *core.Model
	var trips []traj.Trip
	var sessions []session
	err := r.repeatSetup(func(t *setupTimes) error {
		mi, genS, err := r.trainModel(m, t)
		if err != nil {
			return err
		}
		start := time.Now()
		if trips, err = r.hangzhouWorkload(mi, r.sz.offlineTrips); err != nil {
			return err
		}
		sessions = chainSessions(trips, 0, r.sz.sessions, r.sz.sessionTrips)
		t.gen = append(t.gen, genS+time.Since(start).Seconds())
		m = mi
		return nil
	})
	if err != nil {
		return err
	}

	// Warm-up: one untimed pass fills the router's tree cache, fixes the
	// reference digests and measures accuracy.
	ref := make([][32]byte, len(trips))
	var acc metrics.Accum
	for i := range trips {
		res, err := m.Match(trips[i].Cell)
		if !r.op(err) {
			continue
		}
		ref[i] = resultDigest(res)
		acc.Add(metrics.EvalPath(m.Net, res.Path, trips[i].Path, 50))
	}
	r.setAccuracy(&acc)

	window := time.Duration(r.seconds * float64(time.Second))
	wh := m.WeightsHash()
	split := *m
	split.Cfg.OnBreak = hmm.BreakSplit
	var arm pushArm
	push := func(i int) {
		r.pushSession(&arm, split.NewStream(r.sz.lag), &sessions[i], m.Net, func(sm *hmm.StreamMatcher) (int, error) {
			b, err := core.EncodeStreamSnapshot(sm, "bench", wh)
			return len(b), err
		})
	}
	plain := r.newMatchLoop(trips, ref, func(_ int, ct traj.CellTrajectory) (*hmm.Result, error) { return m.Match(ct) })
	if !r.trace {
		interleave(window, len(sessions), push, plain.run)
		r.setPushMetrics(arm)
		r.setMatchMetrics(plain.arm)
		return nil
	}

	// Traced run: the sessions first, then the match window's untraced
	// half and its traced half, so the counters see matches only.
	for i := range sessions {
		push(i)
	}
	begin := time.Now()
	plain.run(begin.Add(window / 2))
	exec := &timedExec{log: r.spans}
	tm := *m
	tm.Cfg.Trace = true
	tm.Exec = exec
	w := beginTrace()
	traced := r.newMatchLoop(trips, ref, func(_ int, ct traj.CellTrajectory) (*hmm.Result, error) {
		id, req := r.spans.id(), r.spans.id()
		exec.req.Store(req)
		exec.parent.Store(id)
		start := time.Now()
		res, err := tm.Match(ct)
		r.spans.add(span{ID: id, Req: req, Name: "core.Model.Match"}, start, time.Now())
		if err == nil {
			w.stages.add(res)
		}
		return res, err
	})
	traced.run(begin.Add(window))
	d := w.end()
	obs.Default.Disable()

	r.traceOpS = traced.arm.opS
	pts := float64(traced.arm.points)
	r.setOverhead(plain.arm, traced.arm)
	r.setCounterMetrics(d, pts)
	r.setMLPMetrics(exec, pts, traced.arm.opS)
	r.setStageShares(w.stages, traced.arm.opS)
	r.addStageRows(w.stages)
	r.setTreeShare(d, traced.arm.opS)
	r.setStreamLayer(arm)
	r.setLayerProbes(m.Net, trips, m.Cfg.K)
	r.setIdle("roadnet.route_us_per_call", "serve.decode_us_per_req", "serve.encode_us_per_req",
		"serve.handler_ms_p50", "serve.client_overhead_ms", "serve.shed_share", "loadgen.lag_ms_p99")
	return nil
}

// setTreeShare reports single-source tree builds (the router's
// Dijkstra histogram) as a share of the timed match seconds.
func (r *run) setTreeShare(d obsDelta, opS float64) {
	trees := d.sums["router.dijkstra.seconds"]
	r.set("roadnet.tree_build_share", ratio(trees, opS))
	r.layers = append(r.layers, layerRow{"roadnet.tree_builds", trees})
}

// setStreamLayer reports the in-process streaming layer metrics.
func (r *run) setStreamLayer(a pushArm) {
	r.set("stream.push_direct_us_p50", quantile(a.lat, 0.5)*1e3)
	snap := 0.0
	if len(a.snapBPP) > 0 {
		snap = mean(a.snapBPP)
	}
	r.set("stream.snapshot_bytes_per_point", snap)
}
