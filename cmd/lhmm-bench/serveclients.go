package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	lhmm "repro"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/serve"
)

// serveClientsResult is the -serve-clients section of the lhmm-bench/v1
// document: aggregate serving throughput + latency quantiles at N
// concurrent clients. Self-hosted runs carry both arms (batching off
// and on) plus the speedup; -serve-url runs carry one arm measured
// against the live server.
type serveClientsResult struct {
	Clients       int     `json:"clients"`
	Trajectories  int     `json:"trajectories"`
	DurationS     float64 `json:"duration_s"`
	BatchWindowMS float64 `json:"batch_window_ms,omitempty"`
	// Dim is the served model's embedding dimension (self-hosted runs;
	// 0 means the library default).
	Dim int `json:"dim,omitempty"`
	// URL is set on external runs (-serve-url) and empty on self-hosted
	// A/B runs.
	URL string `json:"url,omitempty"`
	// ParityDigest is the SHA-256 over the concatenated /v1/match bodies
	// of one sequential pass over every trajectory — identical digests
	// across batching-off and batching-on servers prove byte parity.
	ParityDigest string `json:"parity_digest"`
	// Off/On are the measured arms; external runs fill only Live.
	// ShadowOn is batching-off with candidate-model shadow
	// mirroring enabled — serving-path bytes stay in the parity check,
	// so the arm pins both shadow overhead and shadow transparency.
	Off      *serveArm `json:"batching_off,omitempty"`
	On       *serveArm `json:"batching_on,omitempty"`
	ShadowOn *serveArm `json:"shadow_on,omitempty"`
	Live     *serveArm `json:"live,omitempty"`
	// SpeedupX is On.ThroughputRPS / Off.ThroughputRPS (self-hosted
	// runs only).
	// ShadowFactorX is ShadowOn.ThroughputRPS / Off.ThroughputRPS —
	// the serving-path cost of mirroring every request (sample 1).
	SpeedupX      float64 `json:"speedup_x,omitempty"`
	ShadowFactorX float64 `json:"shadow_factor_x,omitempty"`
	// MeanBatchRows is the average rows per executed scheduler batch in
	// the On arm (from sched.rows / sched.batches deltas).
	MeanBatchRows float64 `json:"mean_batch_rows,omitempty"`
	// DedupedRows counts submitted rows the On arm never had to compute
	// because an identical row was already in the same micro-batch;
	// MemoHits counts rows served from the cross-batch scored-row memo.
	DedupedRows int64 `json:"deduped_rows,omitempty"`
	MemoHits    int64 `json:"memo_hits,omitempty"`
}

// serveArm is one measured serving configuration.
type serveArm struct {
	Requests      int64   `json:"requests"`
	Errors        int64   `json:"errors"`
	WallS         float64 `json:"wall_s"`
	ThroughputRPS float64 `json:"throughput_rps"`
	P50Ms         float64 `json:"latency_p50_ms"`
	P95Ms         float64 `json:"latency_p95_ms"`
	P99Ms         float64 `json:"latency_p99_ms"`
}

// runServeClients measures aggregate served matching throughput at
// `clients` concurrent clients. With url empty it self-hosts the A/B:
// two in-process servers over the same model weights, batching off and
// on, and reports the speedup plus a byte-parity digest across both.
// With url set it drives the live server there (the CI smoke starts
// lhmm-serve itself and diffs the digests of two runs).
func runServeClients(scale float64, trips, clients, dim int, url string, window, dur time.Duration) (*serveClientsResult, string, error) {
	ds, err := lhmm.GenerateDataset(lhmm.SyntheticHangzhou(scale, trips))
	if err != nil {
		return nil, "", fmt.Errorf("generate dataset: %w", err)
	}
	// Every held-out trip becomes a request body; clients round-robin
	// over them.
	var bodies [][]byte
	for _, tr := range ds.TestTrips() {
		req := serve.PointsRequest(tr.Cell)
		b, err := json.Marshal(req)
		if err != nil {
			return nil, "", err
		}
		bodies = append(bodies, b)
	}
	if len(bodies) == 0 {
		return nil, "", fmt.Errorf("no test trips at scale %g / %d trips", scale, trips)
	}

	res := &serveClientsResult{
		Clients:      clients,
		Trajectories: len(bodies),
		DurationS:    dur.Seconds(),
		Dim:          dim,
		URL:          url,
	}

	if url != "" {
		digest, err := parityDigest(url, bodies)
		if err != nil {
			return nil, "", err
		}
		res.ParityDigest = digest
		arm, err := driveClients(url, bodies, clients, dur)
		if err != nil {
			return nil, "", err
		}
		res.Live = arm
		return res, renderServeClients(res), nil
	}

	// Self-hosted A/B over one model skeleton: untrained with frozen
	// embeddings (deterministic for the seed) — the serving layer never
	// trains, and scoring cost is identical in shape either way.
	newModel := func() (*lhmm.Model, error) {
		cfg := lhmm.DefaultConfig()
		if dim > 0 {
			cfg.Dim = dim
		}
		m, err := lhmm.NewModel(ds, ds.TrainTrips(), cfg)
		if err != nil {
			return nil, err
		}
		m.RefreshEmbeddings()
		return m, nil
	}

	startServer := func(s *sched.Scheduler, shadowOn bool) (*serve.Server, *httptest.Server, error) {
		m, err := newModel()
		if err != nil {
			return nil, nil, err
		}
		if s != nil {
			m.Exec = s
		}
		reg := serve.NewRegistry(func() (*lhmm.Model, error) { return m, nil })
		if err := reg.Reload(); err != nil {
			return nil, nil, err
		}
		cfg := serve.Config{Workers: clients, Queue: 4 * clients, Sched: s}
		if shadowOn {
			// Identical-weights candidate (newModel is deterministic per
			// seed): comparisons all agree, but every mirrored request pays
			// the full candidate match — the realistic shadow cost.
			cfg.Shadow = serve.ShadowConfig{
				Loader:    func(string) (*lhmm.Model, error) { return newModel() },
				ModelPath: "bench-candidate",
				Sample:    1,
				Queue:     16384,
			}
		}
		srv, err := serve.New(reg, cfg)
		if err != nil {
			return nil, nil, err
		}
		return srv, httptest.NewServer(srv.Handler()), nil
	}

	res.BatchWindowMS = float64(window) / float64(time.Millisecond)

	// Arm 1: batching off.
	srvOff, tsOff, err := startServer(nil, false)
	if err != nil {
		return nil, "", err
	}
	digestOff, err := parityDigest(tsOff.URL, bodies)
	if err != nil {
		return nil, "", err
	}
	res.Off, err = driveClients(tsOff.URL, bodies, clients, dur)
	if err != nil {
		return nil, "", err
	}
	tsOff.Close()
	srvOff.Close()

	// Arm 1b: shadow mirroring on (batching off). The parity digest must
	// match the shadow-off arm — shadow scoring is observable only via
	// its own endpoints, never in serving-path bytes.
	srvSh, tsSh, err := startServer(nil, true)
	if err != nil {
		return nil, "", err
	}
	digestShadow, err := parityDigest(tsSh.URL, bodies)
	if err != nil {
		return nil, "", err
	}
	res.ShadowOn, err = driveClients(tsSh.URL, bodies, clients, dur)
	if err != nil {
		return nil, "", err
	}
	tsSh.Close()
	srvSh.Close()
	if digestShadow != digestOff {
		return nil, "", fmt.Errorf("byte-parity violation: shadow-on digest %s != shadow-off %s", digestShadow, digestOff)
	}

	// Arm 2: batching on (float64 — byte parity holds).
	scheduler := sched.New(sched.Config{Window: window, MemoBytes: 64 << 20})
	srvOn, tsOn, err := startServer(scheduler, false)
	if err != nil {
		return nil, "", err
	}
	digestOn, err := parityDigest(tsOn.URL, bodies)
	if err != nil {
		return nil, "", err
	}
	before := obs.Default.Snapshot()
	res.On, err = driveClients(tsOn.URL, bodies, clients, dur)
	if err != nil {
		return nil, "", err
	}
	after := obs.Default.Snapshot()
	tsOn.Close()
	srvOn.Close()

	if digestOff != digestOn {
		return nil, "", fmt.Errorf("byte-parity violation: batching-off digest %s != batching-on %s", digestOff, digestOn)
	}
	res.ParityDigest = digestOn
	if res.Off.ThroughputRPS > 0 {
		res.SpeedupX = res.On.ThroughputRPS / res.Off.ThroughputRPS
		if res.ShadowOn != nil {
			res.ShadowFactorX = res.ShadowOn.ThroughputRPS / res.Off.ThroughputRPS
		}
	}
	if db := after.Counters["sched.batches"] - before.Counters["sched.batches"]; db > 0 {
		res.MeanBatchRows = float64(after.Counters["sched.rows"]-before.Counters["sched.rows"]) / float64(db)
	}
	res.DedupedRows = after.Counters["sched.rows.deduped"] - before.Counters["sched.rows.deduped"]
	res.MemoHits = after.Counters["sched.memo.hits"] - before.Counters["sched.memo.hits"]
	return res, renderServeClients(res), nil
}

// parityDigest POSTs every trajectory once, sequentially, and hashes
// the concatenated response bodies. Sequential requests batch trivially
// (single-item batches), so the digest is scheduler-independent iff
// float64 byte parity holds.
func parityDigest(url string, bodies [][]byte) (string, error) {
	h := sha256.New()
	for i, b := range bodies {
		code, body, err := postMatch(url, b)
		if err != nil {
			return "", fmt.Errorf("parity request %d: %w", i, err)
		}
		if code != http.StatusOK {
			return "", fmt.Errorf("parity request %d: HTTP %d: %s", i, code, body)
		}
		h.Write(body)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// driveClients runs `clients` goroutines round-robining over the
// request bodies for dur, then folds their latencies into one arm.
func driveClients(url string, bodies [][]byte, clients int, dur time.Duration) (*serveArm, error) {
	var (
		wg       sync.WaitGroup
		requests atomic.Int64
		errs     atomic.Int64
		latMu    sync.Mutex
		lats     []float64 // milliseconds
	)
	deadline := time.Now().Add(dur)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var local []float64
			for i := c; time.Now().Before(deadline); i++ {
				t0 := time.Now()
				code, _, err := postMatch(url, bodies[i%len(bodies)])
				lat := time.Since(t0)
				requests.Add(1)
				if err != nil || code != http.StatusOK {
					errs.Add(1)
					continue
				}
				local = append(local, float64(lat)/float64(time.Millisecond))
			}
			latMu.Lock()
			lats = append(lats, local...)
			latMu.Unlock()
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	sort.Float64s(lats)
	arm := &serveArm{
		Requests: requests.Load(),
		Errors:   errs.Load(),
		WallS:    wall.Seconds(),
	}
	if ok := arm.Requests - arm.Errors; ok > 0 && wall > 0 {
		arm.ThroughputRPS = float64(ok) / wall.Seconds()
	}
	arm.P50Ms = quantile(lats, 0.50)
	arm.P95Ms = quantile(lats, 0.95)
	arm.P99Ms = quantile(lats, 0.99)
	return arm, nil
}

// postMatch POSTs one prepared body to url's /v1/match.
func postMatch(url string, body []byte) (int, []byte, error) {
	resp, err := http.Post(strings.TrimRight(url, "/")+"/v1/match", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, out, nil
}

// quantile returns the q-quantile of ascending xs (exact order
// statistic, nearest-rank).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(q * float64(len(xs)-1))
	return xs[i]
}

func renderServeClients(r *serveClientsResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d clients x %.0fs over %d trajectories\n", r.Clients, r.DurationS, r.Trajectories)
	arm := func(name string, a *serveArm) {
		if a == nil {
			return
		}
		fmt.Fprintf(&b, "%-13s %7.1f req/s  (%d req, %d err)  p50 %.1fms  p95 %.1fms  p99 %.1fms\n",
			name, a.ThroughputRPS, a.Requests, a.Errors, a.P50Ms, a.P95Ms, a.P99Ms)
	}
	arm("live:", r.Live)
	arm("batching off:", r.Off)
	arm("shadow on:", r.ShadowOn)
	arm("batching on:", r.On)
	if r.ShadowFactorX > 0 {
		fmt.Fprintf(&b, "shadow factor: %.2fx serving throughput with full mirroring (identical-weights candidate)\n",
			r.ShadowFactorX)
	}
	if r.SpeedupX > 0 {
		fmt.Fprintf(&b, "speedup: %.2fx (byte-identical); window %.1fms, mean batch %.1f rows, %d deduped, %d memo hits\n",
			r.SpeedupX, r.BatchWindowMS, r.MeanBatchRows, r.DedupedRows, r.MemoHits)
	}
	fmt.Fprintf(&b, "parity digest: %s\n", r.ParityDigest)
	return b.String()
}
