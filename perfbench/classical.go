package main

import (
	"fmt"
	"time"

	"repro/internal/hmm"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/synth"
	"repro/internal/traj"
)

// The classical matcher of Eqs. 2–3 with the parameters of the
// paper-scale bench: candidates per point, observation σ, transition β.
const (
	classicalK     = 45
	classicalSigma = 450
	classicalBeta  = 500
)

// classicalMatcher is the hmm.Matcher lhmm.ClassicalMatcher builds,
// over its own router. trans, when set, replaces the transition model
// (the traced run wraps it with a timer).
func classicalMatcher(net *roadnet.Network, router *roadnet.Router, onBreak hmm.BreakPolicy, trans hmm.TransitionModel, trace bool) *hmm.Matcher {
	if trans == nil {
		trans = &hmm.ExponentialTransition{Router: router, Beta: classicalBeta}
	}
	return &hmm.Matcher{
		Net:    net,
		Router: router,
		Obs:    &hmm.GaussianObservation{Net: net, Sigma: classicalSigma},
		Trans:  trans,
		Cfg:    hmm.Config{K: classicalK, OnBreak: onBreak, Trace: trace},
	}
}

// runClassical is the classical-cold-routes workload: the classical
// HMM over unseen metro trips, each matched on a fresh router, so
// first-visit single-source tree builds dominate; plus an in-process
// streaming arm on one warmed router.
func runClassical(r *run) error {
	cfg := synth.SyntheticMetro(r.sz.metroScale, 0)
	var city *synth.City
	var trips []traj.Trip
	var sessions []session
	err := r.repeatSetup(func(t *setupTimes) error {
		start := time.Now()
		var err error
		if city, err = presetCity(cfg); err != nil {
			return err
		}
		if trips, err = heldOutTrips(city, cfg, r.seed, r.sz.classicalTrips); err != nil {
			return err
		}
		sessions = chainSessions(trips, 0, r.sz.classicalSessions, r.sz.sessionTrips)
		t.gen = append(t.gen, time.Since(start).Seconds())
		return nil
	})
	if err != nil {
		return err
	}
	net := city.Net

	// The streaming arm shares one router, warmed by an untimed pass
	// over the sessions: it measures per-push cost as sessions grow,
	// which cold tree builds would otherwise drown; the match arm below
	// carries the cold cost.
	streamRouter := roadnet.NewRouter(net)
	newStream := func() *hmm.StreamMatcher {
		return hmm.NewStreamMatcher(classicalMatcher(net, streamRouter, hmm.BreakSplit, nil, false), r.sz.lag)
	}
	for i := range sessions {
		sm := newStream()
		for _, p := range sessions[i].pts {
			if _, err := sm.Push(p); !r.op(err) {
				break
			}
		}
	}
	window := time.Duration(r.seconds * float64(time.Second))
	var arm pushArm
	push := func(i int) { r.pushSession(&arm, newStream(), &sessions[i], net, nil) }

	// ref holds each trip's first digest; paths the first matched paths
	// of the trips the accuracy metrics cover.
	ref := make([][32]byte, len(trips))
	paths := make([][]roadnet.SegmentID, min(r.sz.classicalAccTrips, len(trips)))
	keep := func(k int, res *hmm.Result) {
		if k < len(paths) && paths[k] == nil {
			paths[k] = res.Path
		}
	}
	cold := func(k int, ct traj.CellTrajectory) (*hmm.Result, error) {
		res, err := classicalMatcher(net, roadnet.NewRouter(net), hmm.BreakError, nil, false).Match(ct)
		if err == nil {
			keep(k, res)
		}
		return res, err
	}
	plain := r.newMatchLoop(trips, ref, cold)
	if !r.trace {
		interleave(window, len(sessions), push, plain.run)
		r.setPushMetrics(arm)
		r.setMatchMetrics(plain.arm)
	} else {
		// Sessions first, then the untraced and traced halves, so the
		// counters see matches only.
		for i := range sessions {
			push(i)
		}
		begin := time.Now()
		plain.run(begin.Add(window / 2))
		tt := &timedTrans{}
		w := beginTrace()
		traced := r.newMatchLoop(trips, ref, func(k int, ct traj.CellTrajectory) (*hmm.Result, error) {
			router := roadnet.NewRouter(net)
			tt.inner = &hmm.ExponentialTransition{Router: router, Beta: classicalBeta}
			calls0, busy0 := tt.calls, tt.busy
			id, req := r.spans.id(), r.spans.id()
			start := time.Now()
			res, err := classicalMatcher(net, router, hmm.BreakError, tt, true).Match(ct)
			end := time.Now()
			r.spans.add(span{ID: id, Req: req, Name: "hmm.Matcher.Match"}, start, end)
			r.spans.add(span{Name: "roadnet.RouteDist+Eq3", Req: req, Parent: id, Calls: tt.calls - calls0}, start, start.Add(tt.busy-busy0))
			if err == nil {
				w.stages.add(res)
				keep(k, res)
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
		r.set("roadnet.route_us_per_call", ratio(float64(tt.busy.Nanoseconds())/1e3, float64(tt.calls)))
		r.layers = append(r.layers, layerRow{"roadnet.route+eq3 (in transition)", tt.busy.Seconds()})
		r.setStageShares(w.stages, traced.arm.opS)
		r.addStageRows(w.stages)
		r.setTreeShare(d, traced.arm.opS)
		r.setStreamLayer(arm)
		r.setLayerProbes(net, trips, classicalK)
		r.setIdle("nn.mlp_calls_per_point", "nn.mlp_rows_per_call", "nn.mlp_us_per_row", "nn.mlp_share",
			"serve.decode_us_per_req", "serve.encode_us_per_req", "serve.handler_ms_p50", "serve.client_overhead_ms",
			"serve.shed_share", "loadgen.lag_ms_p99")
	}

	// Trips the window did not reach are matched cold now, so the checks
	// and the accuracy always cover the same trips.
	for k := range paths {
		if ref[k] == ([32]byte{}) {
			if res, err := cold(k, trips[k].Cell); r.op(err) {
				ref[k] = resultDigest(res)
			}
		}
	}
	var acc metrics.Accum
	for k, p := range paths {
		if p != nil {
			acc.Add(metrics.EvalPath(net, p, trips[k].Path, 50))
		}
	}
	if acc.Summary().Trips == 0 {
		return fmt.Errorf("no trip matched")
	}
	r.setAccuracy(&acc)

	// Output check: the first classicalRefTrips trips matched again on
	// one shared, warming router equal their cold matches.
	shared := classicalMatcher(net, roadnet.NewRouter(net), hmm.BreakError, nil, false)
	for k := 0; k < min(r.sz.classicalRefTrips, len(paths)); k++ {
		res, err := shared.Match(trips[k].Cell)
		if r.op(err) && resultDigest(res) != ref[k] {
			r.mismatch("trip %d: match on a warm router differs from the cold match", k)
		}
	}
	return nil
}
