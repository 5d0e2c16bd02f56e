package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/synth"
	"repro/internal/traj"
)

// sessionPause separates chained trips of one device day, in seconds.
const sessionPause = 900

// Cheap set-ups are repeated until minSetupS seconds have been spent
// (at most maxSetupReps times), so their median is not one clock tick.
const (
	minSetupS    = 1.0
	maxSetupReps = 20
)

// setupTimes collects the parts of repeated set-ups, one entry per rep.
type setupTimes struct {
	total, gen, train, start []float64
}

// repeatSetup runs once at least sz.setupReps times and reports the
// medians; the state once builds on its last call is what the run
// measures.
func (r *run) repeatSetup(once func(t *setupTimes) error) error {
	var t setupTimes
	spent := 0.0
	for i := 0; i < r.sz.setupReps || (spent < minSetupS && i < maxSetupReps); i++ {
		start := time.Now()
		if err := once(&t); err != nil {
			return err
		}
		d := time.Since(start).Seconds()
		t.total = append(t.total, d)
		spent += d
	}
	r.set("setup_s", median(t.total))
	r.set("synth.generate_s", median(t.gen))
	r.set("core.train_s", medianOrIdle(t.train))
	r.set("serve.start_s", medianOrIdle(t.start))
	return nil
}

func medianOrIdle(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// trainModel generates the fixed training dataset and trains the
// DefaultConfig model on it. Both depend only on the preset seed and
// modelSeed, never on the workload seed. A model trained by an earlier
// set-up of the same run must have identical weights.
func (r *run) trainModel(prev *core.Model, t *setupTimes) (*core.Model, float64, error) {
	cfg := synth.SyntheticHangzhou(r.sz.hzScale, r.sz.trainTrips)
	cfg.TrainFrac, cfg.ValidFrac = 0.8, 0.2
	start := time.Now()
	ds, err := synth.GenerateDataset(cfg)
	if err != nil {
		return nil, 0, fmt.Errorf("training data: %w", err)
	}
	genS := time.Since(start).Seconds()
	mc := core.DefaultConfig()
	mc.Seed = modelSeed
	start = time.Now()
	m, err := core.Train(ds, mc)
	if err != nil {
		return nil, 0, fmt.Errorf("train: %w", err)
	}
	t.train = append(t.train, time.Since(start).Seconds())
	if prev != nil && m.WeightsHash() != prev.WeightsHash() {
		r.mismatch("set-up %d trained different weights than set-up %d", len(t.train), len(t.train)-1)
	}
	return m, genS, nil
}

// hangzhouWorkload builds the held-out hangzhou trips of the workload
// seed and checks they live on the model's network.
func (r *run) hangzhouWorkload(m *core.Model, n int) ([]traj.Trip, error) {
	cfg := synth.SyntheticHangzhou(r.sz.hzScale, 0)
	city, err := presetCity(cfg)
	if err != nil {
		return nil, err
	}
	if city.Net.NumSegments() != m.Net.NumSegments() {
		return nil, fmt.Errorf("workload city has %d segments, model network %d", city.Net.NumSegments(), m.Net.NumSegments())
	}
	return heldOutTrips(city, cfg, r.seed, n)
}

// presetCity builds the preset's city from the preset seed — the same
// network, with the same segment and tower ids, that
// synth.GenerateDataset builds for that preset.
func presetCity(cfg synth.DatasetConfig) (*synth.City, error) {
	city, err := synth.GenerateCity(cfg.City, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return nil, fmt.Errorf("city: %w", err)
	}
	return city, nil
}

// heldOutTrips generates n trips on the city from the workload seed,
// preprocessed exactly as synth.GenerateDataset preprocesses its trips.
func heldOutTrips(city *synth.City, cfg synth.DatasetConfig, seed int64, n int) ([]traj.Trip, error) {
	tc := cfg.Trips
	tc.Count = n
	trips, err := synth.GenerateTrips(city, tc, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, fmt.Errorf("workload trips: %w", err)
	}
	kept := trips[:0]
	for _, tr := range trips {
		if cfg.Preprocess {
			tr.Cell = traj.Preprocess(tr.Cell, cfg.Filter)
		}
		if len(tr.Cell) >= 2 && len(tr.Path) >= 1 {
			tr.ID = len(kept)
			kept = append(kept, tr)
		}
	}
	if len(kept) == 0 {
		return nil, fmt.Errorf("workload trips: all degenerate")
	}
	return kept, nil
}

// session is one device day: several held-out trips chained into one
// stream, timestamps shifted so they keep increasing with a pause
// between trips.
type session struct {
	pts   traj.CellTrajectory
	trips []*traj.Trip
}

// chainSessions builds n sessions of per trips each, taking trips in
// order from first and wrapping around the pool.
func chainSessions(trips []traj.Trip, first, n, per int) []session {
	out := make([]session, n)
	k := first
	for i := range out {
		var t float64
		s := &out[i]
		for j := 0; j < per; j++ {
			tr := &trips[k%len(trips)]
			k++
			shift := t - tr.Cell[0].T
			for _, p := range tr.Cell {
				p.T += shift
				s.pts = append(s.pts, p)
			}
			t = s.pts[len(s.pts)-1].T + sessionPause
			s.trips = append(s.trips, tr)
		}
	}
	return out
}
