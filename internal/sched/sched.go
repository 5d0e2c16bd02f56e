// Package sched is the cross-request micro-batching inference
// scheduler: it sits between the serving layer and the model's learned
// scoring paths and coalesces MLP forward passes submitted by many
// concurrent requests into shared matrix products.
//
// The learned scoring of LHMM is embarrassingly batchable — every MLP
// head (Eq. 7/8/10/12) is applied row-independently, so the rows of
// any number of requests can be concatenated into one product and the
// per-request output rows sliced back out with bit-identical float64
// values (each output row accumulates in the same inner-loop order
// whether it is scored alone or inside a larger batch; see
// nn.MatMulInto). Batching within one trajectory already happens in
// core; this package adds the continuous-batching dimension across
// requests, the same insight GPU-serving stacks use for transformer
// matchers.
//
// Protocol: a request calls Submit with its feature matrix and a
// preallocated destination. Items are grouped by the *nn.MLP they
// target and flushed as one batch when either the coalescing window
// expires or the group reaches MaxRows. A fixed worker pool executes
// batches; Submit blocks until the caller's rows are written.
//
// Two row-level optimizations ride on row-independence, both invisible
// to byte parity: duplicate rows inside a coalesced batch are computed
// once (dedup), and — with Config.MemoBytes — rows identical to ones
// already scored against the same snapshot are served from a bounded
// cross-batch memo without touching the MLP at all. Correlated serving
// traffic (many clients over the same or overlapping trajectories) is
// exactly the workload where the memo turns coalescing into a real
// aggregate-throughput win; see BENCH_pr9.json.
//
// Model-snapshot pinning: the grouping key is the MLP pointer itself.
// Every model snapshot published by the serving registry owns distinct
// MLP instances, so a micro-batch can only ever contain rows scored
// against one snapshot's weights — a hot reload (SIGHUP or POST
// /v1/reload) mid-batch creates new groups for new requests and can
// never mix weights inside a product.
//
// Batched scoring is byte-identical to direct scoring; the parity
// suites pin it.
package sched

import (
	"encoding/binary"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/nn"
	"repro/internal/obs"
)

// Scheduler telemetry. Batch size (rows per executed product) is the
// headline histogram: a healthy scheduler under load shows sizes well
// above per-request row counts.
var (
	obsItems     = obs.Default.Counter("sched.items")
	obsRows      = obs.Default.Counter("sched.rows")
	obsBatches   = obs.Default.Counter("sched.batches")
	obsDirect    = obs.Default.Counter("sched.direct")
	obsFlushWin  = obs.Default.Counter("sched.flush.window")
	obsFlushSize = obs.Default.Counter("sched.flush.size")
	obsFlushDrn  = obs.Default.Counter("sched.flush.drain")
	obsRowsDedup = obs.Default.Counter("sched.rows.deduped")
	obsMemoHits  = obs.Default.Counter("sched.memo.hits")
	obsMemoEvict = obs.Default.Counter("sched.memo.evictions")
	obsQueueRows = obs.Default.Gauge("sched.queue.depth")
	obsBatchSize = obs.Default.Histogram("sched.batch.size", BatchSizeBuckets)
	obsBatchItem = obs.Default.Histogram("sched.batch.items", BatchSizeBuckets)
	obsOccupancy = obs.Default.Histogram("sched.window.occupancy", OccupancyBuckets)
)

// BatchSizeBuckets bound the batch-size histograms (rows and items per
// executed batch).
var BatchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096}

// OccupancyBuckets bound the window-occupancy histogram: the fraction
// of the coalescing window a batch actually waited before flushing
// (size- and drain-flushed batches land below 1; window flushes at 1).
var OccupancyBuckets = []float64{0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1}

// Config parameterizes a Scheduler.
type Config struct {
	// Window is the coalescing window: the longest an item waits for
	// batch-mates before its group is flushed. <= 0 disables batching —
	// Submit executes immediately on the caller's goroutine, preserving
	// today's behavior exactly.
	Window time.Duration
	// MaxRows flushes a group early once its queued rows reach this
	// (default 512). Bounds both latency under load and batch memory.
	MaxRows int
	// Workers is the number of executor goroutines (default
	// GOMAXPROCS). Batches from different groups execute concurrently;
	// a single batch is one product (which may itself row-parallelize
	// inside nn.MatMulInto).
	Workers int
	// MemoBytes, when > 0, bounds a cross-batch memo of computed output
	// rows keyed by (MLP snapshot, input-row bits): correlated traffic —
	// many concurrent requests over the same or overlapping trajectories
	// — resubmits identical feature rows long after the original batch
	// flushed, and the memo serves them without recomputing the product.
	// Rows are bit-identical either way (same row, same weights, same
	// accumulation order), so the memo is invisible to the float64
	// parity guarantee; snapshot pinning holds because the key includes
	// the MLP pointer, which every reload retires. The budget counts key
	// + value bytes and is cleared wholesale when exceeded. 0 disables.
	MemoBytes int
}

func (c Config) withDefaults() Config {
	if c.MaxRows <= 0 {
		c.MaxRows = 512
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// item is one submitted forward pass: x rows to push through the
// group's MLP, out the caller-owned destination. done is closed after
// out is fully written.
type item struct {
	x    *nn.Mat
	out  *nn.Mat
	done chan struct{}
}

// group accumulates items targeting one MLP (== one model snapshot's
// head) until flushed.
type group struct {
	mlp    *nn.MLP
	items  []*item
	rows   int
	opened time.Time
	timer  *time.Timer
}

// batch is a flushed group handed to the worker pool.
type batch struct {
	mlp    *nn.MLP
	items  []*item
	rows   int
	waited time.Duration
}

// Scheduler coalesces cross-request MLP forward passes. Create with
// New, install on served models via core's Model.Exec hook, and Close
// on shutdown (Close flushes every queued item — graceful drain never
// strands work).
type Scheduler struct {
	cfg Config

	mu     sync.Mutex
	groups map[*nn.MLP]*group
	closed bool

	batches   chan *batch
	inflight  sync.WaitGroup // queued + executing batches
	workersWG sync.WaitGroup
	quit      chan struct{}

	// memo is the cross-batch output-row cache (Config.MemoBytes),
	// per-MLP so snapshot pinning is structural. memoBytes tracks the
	// approximate key+value footprint against the budget.
	memoMu    sync.Mutex
	memo      map[*nn.MLP]map[string][]float64
	memoBytes int
}

// New starts a scheduler with cfg.Workers executor goroutines. With
// cfg.Window <= 0 the scheduler is a pass-through: Submit executes
// synchronously and no goroutines run.
func New(cfg Config) *Scheduler {
	s := &Scheduler{
		cfg:    cfg.withDefaults(),
		groups: make(map[*nn.MLP]*group),
		quit:   make(chan struct{}),
		memo:   make(map[*nn.MLP]map[string][]float64),
	}
	if s.cfg.Window > 0 {
		s.batches = make(chan *batch, 256)
		for i := 0; i < s.cfg.Workers; i++ {
			s.workersWG.Add(1)
			go s.worker()
		}
	}
	return s
}

// Batching reports whether cross-request coalescing is active.
func (s *Scheduler) Batching() bool { return s.cfg.Window > 0 }

// ApplyMLP implements core.MLPExecutor: push x (n×in) through mlp into
// out (n×out), blocking until out is written. x and out are
// caller-owned and must stay valid until return; out never aliases
// scheduler memory afterwards.
func (s *Scheduler) ApplyMLP(mlp *nn.MLP, x, out *nn.Mat) {
	if x.R == 0 {
		return
	}
	obsItems.Inc()
	obsRows.Add(int64(x.R))
	if s.cfg.Window <= 0 {
		obsDirect.Inc()
		s.applyDirect(mlp, x, out)
		return
	}
	it := &item{x: x, out: out, done: make(chan struct{})}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		obsDirect.Inc()
		s.applyDirect(mlp, x, out)
		return
	}
	g := s.groups[mlp]
	if g == nil {
		g = &group{mlp: mlp, opened: time.Now()}
		s.groups[mlp] = g
		g.timer = time.AfterFunc(s.cfg.Window, func() { s.flushGroup(mlp, g, flushWindow) })
	}
	g.items = append(g.items, it)
	g.rows += x.R
	full := g.rows >= s.cfg.MaxRows
	var b *batch
	if full {
		b = s.detachLocked(mlp, g, flushSize)
	}
	s.queueDepthLocked()
	s.mu.Unlock()
	if b != nil {
		s.dispatch(b)
	}
	<-it.done
}

type flushReason int

const (
	flushWindow flushReason = iota
	flushSize
	flushDrain
)

// flushGroup detaches g (if it is still the live group for mlp) and
// dispatches it. Timer-driven.
func (s *Scheduler) flushGroup(mlp *nn.MLP, g *group, why flushReason) {
	s.mu.Lock()
	if s.groups[mlp] != g {
		// Already flushed by size or drain; the timer lost the race.
		s.mu.Unlock()
		return
	}
	b := s.detachLocked(mlp, g, why)
	s.queueDepthLocked()
	s.mu.Unlock()
	if b != nil {
		s.dispatch(b)
	}
}

// detachLocked removes g from the live map and wraps it as a batch.
// Caller holds mu.
func (s *Scheduler) detachLocked(mlp *nn.MLP, g *group, why flushReason) *batch {
	delete(s.groups, mlp)
	if g.timer != nil {
		g.timer.Stop()
	}
	switch why {
	case flushWindow:
		obsFlushWin.Inc()
	case flushSize:
		obsFlushSize.Inc()
	case flushDrain:
		obsFlushDrn.Inc()
	}
	return &batch{mlp: mlp, items: g.items, rows: g.rows, waited: time.Since(g.opened)}
}

// queueDepthLocked refreshes the queued-rows gauge. Caller holds mu.
func (s *Scheduler) queueDepthLocked() {
	var rows int
	for _, g := range s.groups {
		rows += g.rows
	}
	obsQueueRows.Set(int64(rows))
}

// dispatch hands a batch to the worker pool. The inflight group is
// incremented before the send so Close can wait for every queued batch.
func (s *Scheduler) dispatch(b *batch) {
	s.inflight.Add(1)
	s.batches <- b
}

func (s *Scheduler) worker() {
	defer s.workersWG.Done()
	for {
		select {
		case b := <-s.batches:
			s.execute(b)
			s.inflight.Done()
		case <-s.quit:
			// Drain anything still queued, then exit.
			for {
				select {
				case b := <-s.batches:
					s.execute(b)
					s.inflight.Done()
				default:
					return
				}
			}
		}
	}
}

// execute runs one batch: concatenate the unique rows across every
// item, apply the MLP once, demux the output rows, release the
// waiters. Duplicate input rows — concurrent requests over correlated
// traffic resubmit equal feature rows, and every k×k fan-out repeats
// its unreachable-pair sentinel row — are forwarded once and their
// output fanned back out: row-independence makes the shared output row
// bit-identical to computing each duplicate separately, so the dedup
// is invisible to the float64 parity guarantee.
func (s *Scheduler) execute(b *batch) {
	obsBatches.Inc()
	obsBatchSize.Observe(float64(b.rows))
	obsBatchItem.Observe(float64(len(b.items)))
	if s.cfg.Window > 0 {
		occ := float64(b.waited) / float64(s.cfg.Window)
		if occ > 1 {
			occ = 1
		}
		obsOccupancy.Observe(occ)
	}
	memoOn := s.cfg.MemoBytes > 0
	if !memoOn && len(b.items) == 1 {
		// Nothing to coalesce — and without a memo nothing worth
		// dedupping: rows inside one request's product are essentially
		// always distinct (the session's own caches already collapse
		// repeats), so hashing them costs more than it saves. Skip the
		// concat copy too.
		it := b.items[0]
		s.applyDirect(b.mlp, it.x, it.out)
		close(it.done)
		return
	}
	ws := nn.GetWorkspace()
	in := b.items[0].x.C
	// Key each row by its raw float64 bits; the map lookup with
	// string(key) is allocation-free, inserts copy the key once per
	// unique miss row.
	idx := make([]int32, 0, b.rows) // per row: unique-miss index, or -1
	var hit [][]float64             // per row: memoized output, nil on miss
	var missKeys []string           // per unique miss: its key (for memo insert)
	seen := make(map[string]int32, b.rows)
	key := make([]byte, in*8)
	uniq, hits := 0, 0
	var mm map[string][]float64
	if memoOn {
		s.memoMu.Lock()
		if mm = s.memo[b.mlp]; mm == nil {
			mm = make(map[string][]float64)
			s.memo[b.mlp] = mm
		}
		hit = make([][]float64, 0, b.rows)
	}
	for _, it := range b.items {
		for r := 0; r < it.x.R; r++ {
			row := it.x.Row(r)
			for j, v := range row {
				binary.LittleEndian.PutUint64(key[j*8:], math.Float64bits(v))
			}
			if memoOn {
				if v, ok := mm[string(key)]; ok {
					idx = append(idx, -1)
					hit = append(hit, v)
					hits++
					continue
				}
				hit = append(hit, nil)
			}
			if u, ok := seen[string(key)]; ok {
				idx = append(idx, u)
				continue
			}
			seen[string(key)] = int32(uniq)
			if memoOn {
				missKeys = append(missKeys, string(key))
			}
			idx = append(idx, int32(uniq))
			uniq++
		}
	}
	if memoOn {
		s.memoMu.Unlock()
		obsMemoHits.Add(int64(hits))
	}
	obsRowsDedup.Add(int64(b.rows - hits - uniq))

	var res *nn.Mat
	if uniq > 0 {
		unique := ws.Take(uniq, in)
		ri := 0
		for _, it := range b.items {
			for r := 0; r < it.x.R; r++ {
				if u := idx[ri]; u >= 0 {
					copy(unique.Row(int(u)), it.x.Row(r))
				}
				ri++
			}
		}
		res = b.mlp.ApplyWS(ws, unique)
	}

	ri := 0
	for _, it := range b.items {
		for r := 0; r < it.x.R; r++ {
			if u := idx[ri]; u >= 0 {
				copy(it.out.Row(r), res.Row(int(u)))
			} else {
				copy(it.out.Row(r), hit[ri])
			}
			ri++
		}
		close(it.done)
	}

	if memoOn && uniq > 0 {
		outC := res.C
		s.memoMu.Lock()
		// The batch's map may have been evicted mid-flight; re-fetch so
		// inserts land in the live generation.
		if mm = s.memo[b.mlp]; mm == nil {
			mm = make(map[string][]float64)
			s.memo[b.mlp] = mm
		}
		for u, k := range missKeys {
			if _, ok := mm[k]; ok {
				continue
			}
			v := make([]float64, outC)
			copy(v, res.Row(u))
			mm[k] = v
			s.memoBytes += len(k) + 8*outC + 48
		}
		if s.memoBytes > s.cfg.MemoBytes {
			s.memo = make(map[*nn.MLP]map[string][]float64)
			s.memoBytes = 0
			obsMemoEvict.Inc()
		}
		s.memoMu.Unlock()
	}
	nn.PutWorkspace(ws)
}

// applyDirect scores one item synchronously (pass-through mode, closed
// scheduler, or a single-item batch).
func (s *Scheduler) applyDirect(mlp *nn.MLP, x, out *nn.Mat) {
	ws := nn.GetWorkspace()
	res := mlp.ApplyWS(ws, x)
	copy(out.W, res.W[:x.R*res.C])
	nn.PutWorkspace(ws)
}

// Close flushes every queued group, waits for all dispatched batches
// to execute, and stops the workers. Items submitted after Close fall
// back to direct execution, so no caller is ever stranded — graceful
// drain is: stop admitting requests, let in-flight matches finish
// (their submits either batch or run direct), then Close.
func (s *Scheduler) Close() {
	if s.cfg.Window <= 0 {
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	var flushed []*batch
	for mlp, g := range s.groups {
		flushed = append(flushed, s.detachLocked(mlp, g, flushDrain))
	}
	s.queueDepthLocked()
	s.mu.Unlock()
	for _, b := range flushed {
		s.dispatch(b)
	}
	s.inflight.Wait()
	close(s.quit)
	s.workersWG.Wait()
}
