package sched

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/nn"
	"repro/internal/obs"
)

func testMLP(t *testing.T, seed int64) *nn.MLP {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	return nn.NewMLP("t", []int{6, 8, 2}, nn.ActReLU, rng)
}

func randMat(rng *rand.Rand, r, c int) *nn.Mat {
	m := nn.NewMat(r, c)
	for i := range m.W {
		m.W[i] = rng.NormFloat64()
	}
	return m
}

// direct computes the reference output with the inline workspace path.
func direct(mlp *nn.MLP, x *nn.Mat) *nn.Mat {
	ws := nn.GetWorkspace()
	defer nn.PutWorkspace(ws)
	return mlp.ApplyWS(ws, x).Clone()
}

// TestSchedParityF64 pins the core contract: concurrent submissions
// coalesced into shared products return float64 rows bit-identical to
// direct per-request scoring.
func TestSchedParityF64(t *testing.T) {
	mlp := testMLP(t, 1)
	s := New(Config{Window: 200 * time.Microsecond, MaxRows: 64, Workers: 4})
	defer s.Close()

	const goroutines = 16
	const rounds = 25
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for r := 0; r < rounds; r++ {
				x := randMat(rng, 1+rng.Intn(9), 6)
				out := nn.NewMat(x.R, 2)
				s.ApplyMLP(mlp, x, out)
				want := direct(mlp, x)
				for i := range out.W {
					if out.W[i] != want.W[i] {
						errs <- "scheduled output differs from direct"
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestSchedPassThrough: Window <= 0 executes inline with no
// goroutines, bit-identical to direct.
func TestSchedPassThrough(t *testing.T) {
	mlp := testMLP(t, 2)
	s := New(Config{})
	defer s.Close()
	if s.Batching() {
		t.Fatal("zero window must not batch")
	}
	rng := rand.New(rand.NewSource(7))
	x := randMat(rng, 5, 6)
	out := nn.NewMat(5, 2)
	s.ApplyMLP(mlp, x, out)
	want := direct(mlp, x)
	for i := range out.W {
		if out.W[i] != want.W[i] {
			t.Fatalf("pass-through differs at %d: %v vs %v", i, out.W[i], want.W[i])
		}
	}
}

// TestSchedFlushOnDrain: items queued behind an hour-long window must
// all complete when Close flushes — graceful shutdown never strands a
// waiter.
func TestSchedFlushOnDrain(t *testing.T) {
	mlp := testMLP(t, 3)
	s := New(Config{Window: time.Hour, MaxRows: 1 << 20, Workers: 2})

	const n = 8
	var wg sync.WaitGroup
	outs := make([]*nn.Mat, n)
	xs := make([]*nn.Mat, n)
	started := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		xs[i] = randMat(rng, 2, 6)
		outs[i] = nn.NewMat(2, 2)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started <- struct{}{}
			s.ApplyMLP(mlp, xs[i], outs[i])
		}(i)
	}
	for i := 0; i < n; i++ {
		<-started
	}
	// Give the submits a moment to enqueue behind the huge window.
	time.Sleep(20 * time.Millisecond)
	done := make(chan struct{})
	go func() { s.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not flush queued items")
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		want := direct(mlp, xs[i])
		for j := range want.W {
			if outs[i].W[j] != want.W[j] {
				t.Fatalf("drained item %d differs", i)
			}
		}
	}
	// Submitting after Close still works (direct fallback).
	x := randMat(rand.New(rand.NewSource(99)), 3, 6)
	out := nn.NewMat(3, 2)
	s.ApplyMLP(mlp, x, out)
	want := direct(mlp, x)
	for j := range want.W {
		if out.W[j] != want.W[j] {
			t.Fatal("post-Close submit differs from direct")
		}
	}
}

// TestSchedSizeFlush: a group reaching MaxRows flushes without waiting
// out the window.
func TestSchedSizeFlush(t *testing.T) {
	mlp := testMLP(t, 4)
	s := New(Config{Window: time.Hour, MaxRows: 8, Workers: 2})
	defer s.Close()
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			x := randMat(rng, 2, 6) // 4×2 = 8 rows == MaxRows
			out := nn.NewMat(2, 2)
			s.ApplyMLP(mlp, x, out)
		}(i)
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("size flush took %v; window wait leaked in", elapsed)
	}
}

// TestSchedSnapshotPinning: items targeting different MLP instances
// (distinct model snapshots) never mix — each result is bit-identical
// to direct scoring through its own weights, even under concurrent
// submission into one scheduler.
func TestSchedSnapshotPinning(t *testing.T) {
	oldM := testMLP(t, 10) // "pre-reload" snapshot
	newM := testMLP(t, 11) // "post-reload" snapshot (different weights)
	s := New(Config{Window: 300 * time.Microsecond, MaxRows: 32, Workers: 4})
	defer s.Close()

	var wg sync.WaitGroup
	errs := make(chan string, 32)
	for g := 0; g < 16; g++ {
		mlp := oldM
		if g%2 == 1 {
			mlp = newM
		}
		wg.Add(1)
		go func(g int, mlp *nn.MLP) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for r := 0; r < 20; r++ {
				x := randMat(rng, 1+rng.Intn(4), 6)
				out := nn.NewMat(x.R, 2)
				s.ApplyMLP(mlp, x, out)
				want := direct(mlp, x)
				for i := range out.W {
					if out.W[i] != want.W[i] {
						errs <- "mixed-weights output detected"
						return
					}
				}
			}
		}(g, mlp)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestSchedRowDedup: duplicate rows inside a coalesced batch are
// computed once and fanned back out bit-identically — correlated
// traffic (many requests over the same trajectory) must not pay for
// the same product row twice. Pinned via the sched.rows.deduped
// counter plus full parity against direct scoring.
func TestSchedRowDedup(t *testing.T) {
	obs.Default.Enable()
	before := obs.Default.Snapshot()
	mlp := testMLP(t, 12)
	s := New(Config{Window: 2 * time.Millisecond, MaxRows: 1 << 20, Workers: 2})

	// Every goroutine submits the SAME matrix: a coalesced batch holds
	// 8 copies of each row, so at least one multi-item batch must dedup.
	shared := randMat(rand.New(rand.NewSource(77)), 4, 6)
	want := direct(mlp, shared)
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 10; r++ {
				x := shared.Clone()
				out := nn.NewMat(x.R, 2)
				s.ApplyMLP(mlp, x, out)
				for i := range out.W {
					if out.W[i] != want.W[i] {
						errs <- "deduped output differs from direct"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	s.Close()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	after := obs.Default.Snapshot()
	if d := after.Counters["sched.rows.deduped"] - before.Counters["sched.rows.deduped"]; d <= 0 {
		t.Fatal("identical concurrent rows never deduped")
	}
}

// TestSchedMemo: the cross-batch scored-row memo serves repeated rows
// bit-identically and without recomputation (sched.memo.hits moves),
// and stays within its byte budget via wholesale eviction.
func TestSchedMemo(t *testing.T) {
	obs.Default.Enable()
	before := obs.Default.Snapshot()
	mlp := testMLP(t, 13)
	s := New(Config{Window: 100 * time.Microsecond, MaxRows: 64, Workers: 2, MemoBytes: 1 << 20})

	x := randMat(rand.New(rand.NewSource(55)), 5, 6)
	want := direct(mlp, x)
	// Two sequential submissions: the second must be served from the
	// memo (same rows, same snapshot) and still match direct exactly.
	for round := 0; round < 2; round++ {
		out := nn.NewMat(x.R, 2)
		s.ApplyMLP(mlp, x.Clone(), out)
		for i := range out.W {
			if out.W[i] != want.W[i] {
				t.Fatalf("round %d: memoized output differs from direct at %d", round, i)
			}
		}
	}
	after := obs.Default.Snapshot()
	if d := after.Counters["sched.memo.hits"] - before.Counters["sched.memo.hits"]; d < int64(x.R) {
		t.Fatalf("memo hits moved by %d, want >= %d", d, x.R)
	}

	// A tiny budget must evict rather than grow without bound.
	s2 := New(Config{Window: 100 * time.Microsecond, MaxRows: 64, Workers: 1, MemoBytes: 256})
	rng := rand.New(rand.NewSource(56))
	for i := 0; i < 20; i++ {
		xi := randMat(rng, 4, 6)
		out := nn.NewMat(4, 2)
		s2.ApplyMLP(mlp, xi, out)
	}
	s2.Close()
	s.Close()
	evicted := obs.Default.Snapshot()
	if evicted.Counters["sched.memo.evictions"] <= before.Counters["sched.memo.evictions"] {
		t.Fatal("memo never evicted under a 256-byte budget")
	}
}

// TestSchedMetrics: the headline instruments move under batching
// (sched.batch.size histogram is the CI smoke's assertion target).
func TestSchedMetrics(t *testing.T) {
	obs.Default.Enable()
	before := obs.Default.Snapshot()
	mlp := testMLP(t, 6)
	s := New(Config{Window: 200 * time.Microsecond, MaxRows: 64, Workers: 2})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for r := 0; r < 5; r++ {
				x := randMat(rng, 3, 6)
				out := nn.NewMat(3, 2)
				s.ApplyMLP(mlp, x, out)
			}
		}(g)
	}
	wg.Wait()
	s.Close()
	after := obs.Default.Snapshot()
	if d := after.Counters["sched.items"] - before.Counters["sched.items"]; d != 40 {
		t.Fatalf("sched.items moved by %d, want 40", d)
	}
	if after.Counters["sched.batches"] <= before.Counters["sched.batches"] {
		t.Fatal("no batches executed")
	}
	hb, ha := before.Histograms["sched.batch.size"], after.Histograms["sched.batch.size"]
	if ha.Count <= hb.Count {
		t.Fatal("sched.batch.size histogram did not move")
	}
}
