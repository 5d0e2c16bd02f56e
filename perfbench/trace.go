package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hmm"
	"repro/internal/nn"
	"repro/internal/traj"
)

// span is one bench-side call into a layer. Spans of one request share
// Req; Parent links a call to the call that caused it. Calls the bench
// cannot attribute to a request (MLP passes under concurrent serving)
// carry Req 0. Calls too fine-grained for a span each are folded into
// one span per request with Calls set.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_us"`
	Dur    int64  `json:"dur_us"`
	Calls  int64  `json:"calls,omitempty"`
	Rows   int64  `json:"rows,omitempty"`
}

// spanLog keeps spans in memory until the run ends. It records only in
// traced runs.
type spanLog struct {
	t0      time.Time
	enabled atomic.Bool
	nextID  atomic.Int64
	mu      sync.Mutex
	spans   []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// id reserves a span id so children can name their parent before the
// parent span itself is recorded.
func (l *spanLog) id() int64 { return l.nextID.Add(1) }

func (l *spanLog) add(s span, start, end time.Time) {
	if !l.enabled.Load() {
		return
	}
	if s.ID == 0 {
		s.ID = l.id()
	}
	s.Start = start.Sub(l.t0).Microseconds()
	s.Dur = end.Sub(start).Microseconds()
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// write stores the spans as JSON lines after a header line carrying the
// run's identity and machine record.
func (l *spanLog) write(path, workload string, seed int64, mach machine) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := enc.Encode(map[string]any{"workload": workload, "seed": seed, "model_seed": modelSeed, "machine": mach, "spans": len(l.spans)}); err != nil {
		f.Close()
		return fmt.Errorf("span file: %w", err)
	}
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("span file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span file: %w", err)
	}
	return f.Close()
}

// timedExec is a core.MLPExecutor that times every batched MLP pass and
// delegates to MLP.ApplyWS — the same kernel the model runs inline, so
// the scores are bit-identical to an untraced match.
type timedExec struct {
	log    *spanLog
	req    atomic.Int64 // request the current passes belong to (offline only)
	parent atomic.Int64
	calls  atomic.Int64
	rows   atomic.Int64
	busy   atomic.Int64 // nanoseconds
}

func (e *timedExec) ApplyMLP(mlp *nn.MLP, x, out *nn.Mat) {
	start := time.Now()
	ws := nn.GetWorkspace()
	y := mlp.ApplyWS(ws, x)
	copy(out.W, y.W[:x.R*y.C])
	nn.PutWorkspace(ws)
	end := time.Now()
	e.calls.Add(1)
	e.rows.Add(int64(x.R))
	e.busy.Add(int64(end.Sub(start)))
	e.log.add(span{Name: "nn.ApplyMLP", Req: e.req.Load(), Parent: e.parent.Load(), Rows: int64(x.R)}, start, end)
}

// reset zeroes the totals at the start of a traced window.
func (e *timedExec) reset() {
	e.calls.Store(0)
	e.rows.Store(0)
	e.busy.Store(0)
}

// setMLPMetrics reports the executor's totals over a traced window.
func (r *run) setMLPMetrics(e *timedExec, points, totalS float64) {
	calls, rows, busyS := float64(e.calls.Load()), float64(e.rows.Load()), float64(e.busy.Load())/1e9
	r.set("nn.mlp_calls_per_point", ratio(calls, points))
	r.set("nn.mlp_rows_per_call", ratio(rows, calls))
	r.set("nn.mlp_us_per_row", ratio(busyS*1e6, rows))
	r.set("nn.mlp_share", ratio(busyS, totalS))
	r.layers = append(r.layers, layerRow{"nn.mlp", busyS})
}

// timedTrans wraps a transition model (RouteDist plus Eq. 3) with a
// call counter and busy clock. It is driven from one goroutine.
type timedTrans struct {
	inner hmm.TransitionModel
	calls int64
	busy  time.Duration
}

func (t *timedTrans) Score(ct traj.CellTrajectory, i int, from, to *hmm.Candidate) (float64, bool) {
	start := time.Now()
	p, ok := t.inner.Score(ct, i, from, to)
	t.busy += time.Since(start)
	t.calls++
	return p, ok
}

// layerRow is one line of the traced per-layer table: seconds a layer
// was busy inside the traced window.
type layerRow struct {
	name string
	busy float64
}

// printLayerTable prints each layer's busy time and share of the
// traced window's timed operations, then the per-layer metrics.
func (r *run) printLayerTable(w io.Writer) {
	total := r.traceOpS
	fmt.Fprintf(w, "\nper-layer busy time, %s seed %d (share of %.3fs of timed operations)\n", r.workload, r.seed, total)
	for _, l := range r.layers {
		fmt.Fprintf(w, "  %-34s %9.4fs  %6.1f%%\n", l.name, l.busy, 100*ratio(l.busy, total))
	}
	fmt.Fprintln(w, "\nper-layer metrics")
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", d.Name, r.metrics[d.Name], d.Unit)
	}
}
