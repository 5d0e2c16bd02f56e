package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/hmm"
	"repro/internal/obs"
	"repro/internal/traj"
)

// streamModel builds an untrained model with frozen embeddings — the
// learned scoring machinery is exercised end to end without paying for
// training (weights are deterministic for the seed).
func streamModel(t testing.TB, d *traj.Dataset) *Model {
	t.Helper()
	m, err := New(d, d.TrainTrips(), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	m.RefreshEmbeddings()
	return m
}

func TestNewStreamDeterministic(t *testing.T) {
	d := testDataset(t, 10)
	m := streamModel(t, d)
	tr := d.TestTrips()[0]

	run := func() ([]int, []int) {
		sm := m.NewStream(2)
		var segs []int
		for _, p := range tr.Cell {
			out, err := sm.Push(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range out {
				segs = append(segs, int(c.Seg))
			}
		}
		for _, c := range sm.Flush() {
			segs = append(segs, int(c.Seg))
		}
		path := make([]int, 0, 8)
		for _, s := range sm.Path() {
			path = append(path, int(s))
		}
		return segs, path
	}

	s1, p1 := run()
	s2, p2 := run()
	if len(s1) != len(tr.Cell) {
		t.Fatalf("emitted %d matches for %d points", len(s1), len(tr.Cell))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("two streams diverge at point %d: %d vs %d", i, s1[i], s2[i])
		}
	}
	if len(p1) == 0 {
		t.Fatal("empty expanded path")
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("paths diverge at %d", i)
		}
	}
}

// The streamed observation scores must be finite and normalized like
// the batch session's (a pool softmax), and lag semantics must hold:
// nothing is finalized until Lag points of look-ahead exist.
func TestNewStreamLagAndScores(t *testing.T) {
	d := testDataset(t, 10)
	m := streamModel(t, d)
	tr := d.TestTrips()[0]
	if len(tr.Cell) < 4 {
		t.Skip("trip too short")
	}
	lag := 2
	sm := m.NewStream(lag)
	for i, p := range tr.Cell {
		out, err := sm.Push(p)
		if err != nil {
			t.Fatal(err)
		}
		if i < lag && len(out) > 0 {
			t.Fatalf("point %d finalized before %d points of look-ahead", i, lag)
		}
		for _, c := range out {
			if math.IsNaN(c.Obs) || c.Obs < 0 || c.Obs > 1 {
				t.Fatalf("observation probability %v out of range", c.Obs)
			}
		}
	}
	if got := sm.Pending(); got != lag {
		t.Fatalf("pending %d points in steady state, want %d", got, lag)
	}
	sm.Flush()
	if got := sm.Pending(); got != 0 {
		t.Fatalf("pending %d after Flush", got)
	}
}

func TestNewStreamWithoutEmbeddingsPanics(t *testing.T) {
	d := testDataset(t, 6)
	m, err := New(d, d.TrainTrips(), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("NewStream without embeddings did not panic")
		}
	}()
	m.NewStream(1)
}

// The model's sanitize and break policies carry into the stream.
func TestNewStreamPolicyCarryover(t *testing.T) {
	d := testDataset(t, 10)
	m := streamModel(t, d)
	m.Cfg.Sanitize = traj.SanitizeDrop
	sm := m.NewStream(1)
	tr := d.TestTrips()[0]
	if _, err := sm.Push(tr.Cell[0]); err != nil {
		t.Fatal(err)
	}
	// A non-increasing timestamp is dropped, not an error, under drop.
	bad := tr.Cell[1]
	bad.T = tr.Cell[0].T
	if _, err := sm.Push(bad); err != nil {
		t.Fatalf("drop-mode push errored: %v", err)
	}
	if got := sm.Sanitize().BadTimes; got != 1 {
		t.Fatalf("BadTimes = %d, want 1", got)
	}

	m.Cfg.Sanitize = traj.SanitizeStrict
	sm2 := m.NewStream(1)
	if _, err := sm2.Push(tr.Cell[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := sm2.Push(bad); err == nil {
		t.Fatal("strict-mode push accepted a non-increasing timestamp")
	}
}

// Streaming and offline sessions share the scoring code; pin that a
// candidate layer produced by each for the same first point agrees
// (with a single point there is no look-ahead, so the causal context
// equals the batch context and scores must match exactly).
func TestNewStreamFirstPointAgreesWithBatch(t *testing.T) {
	d := testDataset(t, 10)
	m := streamModel(t, d)
	tr := d.TestTrips()[0]
	one := tr.Cell[:1]

	sess := m.newSession(one)
	defer sess.release()
	batch := sess.Candidates(one, 0, m.Cfg.K)

	stream := m.newStreamSession().Candidates(one, 0, m.Cfg.K)

	if len(batch) != len(stream) {
		t.Fatalf("layer sizes differ: %d vs %d", len(batch), len(stream))
	}
	for i := range batch {
		if batch[i].Seg != stream[i].Seg || batch[i].Obs != stream[i].Obs {
			t.Fatalf("candidate %d differs: batch (%d, %v) vs stream (%d, %v)",
				i, batch[i].Seg, batch[i].Obs, stream[i].Seg, stream[i].Obs)
		}
	}
}

// oracleStream is a small pairwise fixed-lag Viterbi over the scalar
// oracle: candidates from a causal session, every transition scored one
// pair at a time by oracleTransScore, and at each point the match
// lag points back read off the backtrack from the current best
// candidate. It returns the emitted segments in emission order, Flush
// included (no dead points: the learned pool never comes up empty).
func oracleStream(t *testing.T, m *Model, ct traj.CellTrajectory, lag int) []hmm.Candidate {
	t.Helper()
	s := m.newStreamSession()
	var layers [][]hmm.Candidate
	var f [][]float64
	var pre [][]int
	var out []hmm.Candidate
	emit := func(upTo, from int) {
		last := len(layers) - 1
		idx := 0
		for j, v := range f[last] {
			if v > f[last][idx] {
				idx = j
			}
		}
		chain := make([]int, len(layers))
		for i := last; i >= 0; i-- {
			chain[i] = idx
			if i == 0 {
				break
			}
			if idx = pre[i][idx]; idx < 0 {
				idx = 0
				for j, v := range f[i-1] {
					if v > f[i-1][idx] {
						idx = j
					}
				}
			}
		}
		for i := from; i <= upTo; i++ {
			out = append(out, layers[i][chain[i]])
		}
	}
	emitted := 0
	for i := range ct {
		pts := ct[:i+1]
		layer := s.Candidates(pts, i, m.Cfg.K)
		fi := make([]float64, len(layer))
		pi := make([]int, len(layer))
		for kk := range layer {
			fi[kk], pi[kk] = layer[kk].Obs, -1
			if i == 0 {
				continue
			}
			best := math.Inf(-1)
			for j := range layers[i-1] {
				p, ok := oracleTransScore(s, pts, i, &layers[i-1][j], &layer[kk])
				if !ok {
					continue
				}
				if v := f[i-1][j] + p*layer[kk].Obs; v > best {
					best, fi[kk], pi[kk] = v, v, j
				}
			}
		}
		layers, f, pre = append(layers, layer), append(f, fi), append(pre, pi)
		if upTo := i - lag; upTo >= emitted {
			emit(upTo, emitted)
			emitted = upTo + 1
		}
	}
	if emitted < len(ct) {
		emit(len(ct)-1, emitted)
	}
	return out
}

// TestStreamMatchesPairwiseOracle: the learned stream, which fills each
// step through the batched kernels and advances through the shared
// recurrence, emits exactly what a pairwise Viterbi over the scalar
// oracle emits, at several lags.
func TestStreamMatchesPairwiseOracle(t *testing.T) {
	d := testDataset(t, 10)
	m := streamModel(t, d)
	tr := d.TestTrips()[0]
	ct := tr.Cell
	if len(ct) > 14 {
		ct = ct[:14]
	}
	for _, lag := range []int{0, 2, 5} {
		sm := m.NewStream(lag)
		var got []hmm.Candidate
		for _, p := range ct {
			out, err := sm.Push(p)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, out...)
		}
		got = append(got, sm.Flush()...)
		want := oracleStream(t, m, ct, lag)
		if len(got) != len(want) {
			t.Fatalf("lag %d: stream emitted %d matches, oracle %d", lag, len(got), len(want))
		}
		for i := range got {
			if got[i].Seg != want[i].Seg || got[i].Frac != want[i].Frac {
				t.Fatalf("lag %d emission %d: stream seg %d, oracle seg %d", lag, i, got[i].Seg, want[i].Seg)
			}
		}
	}
}

// A non-finite learned transition on a stream degrades to the explicit
// feature inside the batched fan-out; the fallback must still count in
// StreamMatcher.Degraded and in hmm.match.degraded, and a clean run
// after disarming must match an unfaulted stream exactly.
func TestChaosStreamTransNaN(t *testing.T) {
	t.Cleanup(faultinject.DisarmAll)
	if !obs.Default.Enabled() {
		obs.Default.Enable()
		t.Cleanup(obs.Default.Disable)
	}
	d := testDataset(t, 10)
	m := streamModel(t, d)
	tr := d.TestTrips()[0]
	run := func() *hmm.StreamMatcher {
		sm := m.NewStream(2)
		for _, p := range tr.Cell {
			if _, err := sm.Push(p); err != nil {
				t.Fatal(err)
			}
		}
		sm.Flush()
		return sm
	}
	want := run()

	faultinject.DisarmAll()
	if err := faultinject.Arm("core.trans.nan:3"); err != nil {
		t.Fatal(err)
	}
	counter := obs.Default.Counter("hmm.match.degraded")
	before := counter.Value()
	faulted := run()
	if faulted.Degraded() == 0 {
		t.Fatal("injected NaN transitions produced no degraded events on the stream")
	}
	if got := counter.Value() - before; got < int64(faulted.Degraded()) {
		t.Fatalf("hmm.match.degraded moved by %d, stream counted %d", got, faulted.Degraded())
	}
	if len(faulted.Matched()) != len(tr.Cell) {
		t.Fatalf("faulted stream matched %d of %d points", len(faulted.Matched()), len(tr.Cell))
	}

	faultinject.DisarmAll()
	clean := run()
	if clean.Degraded() != 0 {
		t.Fatalf("disarmed stream counted %d degraded events", clean.Degraded())
	}
	if !reflect.DeepEqual(clean.Matched(), want.Matched()) || !reflect.DeepEqual(clean.Path(), want.Path()) {
		t.Fatal("disarmed stream differs from the unfaulted one")
	}
}
