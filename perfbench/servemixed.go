package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/hmm"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/traj"
)

// reqHeader carries the bench's request id so the traced handler
// wrapper can pair its handler time with the client's latency.
const reqHeader = "X-Bench-Req"

// liveServer is an in-process serve.Server behind a loopback listener.
type liveServer struct {
	srv  *serve.Server
	http *http.Server
	url  string
	done chan struct{}
}

// startServer serves the model with lhmm-serve's shipped defaults
// (batching, checkpoints and shadow off) and waits for /readyz.
func startServer(m *core.Model, wrap func(http.Handler) http.Handler) (*liveServer, error) {
	reg := serve.NewRegistry(func() (*core.Model, error) { return m, nil })
	if err := reg.Reload(); err != nil {
		return nil, err
	}
	srv, err := serve.New(reg, serve.Config{
		Workers: 4, Queue: 64, MaxSessions: 1024, SessionTTL: 5 * time.Minute,
		DefaultLag: 2, MatchTimeout: 30 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	ls := &liveServer{srv: srv, http: &http.Server{Handler: wrap(srv.Handler())}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(ls.done)
		ls.http.Serve(ln) //nolint:errcheck // returns ErrServerClosed on stop
	}()
	for i := 0; ; i++ {
		resp, err := http.Get(ls.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return ls, nil
			}
		}
		if i == 500 {
			ls.stop()
			return nil, fmt.Errorf("server not ready after 5s")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stop drains and closes the server and waits for its serve loop.
func (ls *liveServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ls.http.Shutdown(ctx) //nolint:errcheck // best effort; Close below frees the rest
	ls.srv.Drain(ctx)     //nolint:errcheck
	ls.srv.Close()
	<-ls.done
}

// handlerTimer wraps the server handler and records each bench
// request's handler time by request id.
type handlerTimer struct {
	h  http.Handler
	mu sync.Mutex
	d  map[int64]time.Duration
}

func (t *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	t.h.ServeHTTP(w, r)
	d := time.Since(start)
	if id, err := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64); err == nil {
		t.mu.Lock()
		t.d[id] = d
		t.mu.Unlock()
	}
}

func (t *handlerTimer) get(id int64) (time.Duration, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	d, ok := t.d[id]
	return d, ok
}

// opKind is one request type of the mixed traffic.
type opKind int

const (
	opCreate opKind = iota
	opPush
	opMatch
	opFinish
)

// sample is one completed request.
type sample struct {
	kind   opKind
	points int
	lat    time.Duration // from due (open loop) or send (closed loop)
	sent   time.Duration // from send
	lag    time.Duration // send minus due
	req    int64
}

// finished is a session the server finished: the spec, how many
// points it received, and the finish body.
type finished struct {
	spec   int
	points int
	body   []byte
	pushMs []float64 // push latencies from due, for open-loop sessions
	full   bool      // every point was pushed in the open loop
}

// mix is the deterministic traffic of serve-mixed. The session client
// runs streaming sessions 0, 1, 2, ... one at a time — create, one
// point per push, finish — and the match client sends /v1/match of the
// pool trips in order. The server interleaves the two classes.
type mix struct {
	r        *run
	pool     []traj.Trip
	bodies   [][]byte // /v1/match request bodies per pool trip
	want     [][]byte // expected /v1/match response bodies
	client   *http.Client
	url      string
	lastReq  atomic.Int64
	sessions map[int]*sessionSpec // touched by the session client only
}

// sessionSpec is a session with its per-point push bodies.
type sessionSpec struct {
	session
	push [][]byte
}

func (x *mix) spec(i int) *sessionSpec {
	s, ok := x.sessions[i]
	if !ok {
		s = &sessionSpec{session: chainSessions(x.pool, i*x.r.sz.sessionTrips, 1, x.r.sz.sessionTrips)[0]}
		for _, p := range s.pts {
			b, _ := json.Marshal(serve.PushRequest{Points: []serve.Point{{Tower: int(p.Tower), X: p.P.X, Y: p.P.Y, T: p.T}}})
			s.push = append(s.push, b)
		}
		x.sessions[i] = s
	}
	return s
}

// clientState is where one client is in its traffic.
type clientState struct {
	sessions bool          // the session client; otherwise the match client
	openGap  time.Duration // request interval of the open-loop phase
	openLoop bool          // the current phase is the open loop
	samples  []sample

	matches int // match client: requests sent

	sess     int    // session client: spec index of the current session
	sid      string // its server id, "" between sessions
	pt       int    // points pushed into it
	pushMs   []float64
	finishes []finished
}

// phase drives one client until the deadline, then finishes its open
// session. With interval > 0 requests are due every interval from
// first (open loop); otherwise each is sent when the previous returns.
func (x *mix) phase(cs *clientState, first time.Time, interval time.Duration, until time.Time) {
	cs.openLoop = interval > 0
	for n := 0; ; n++ {
		due := time.Now()
		if cs.openLoop {
			due = first.Add(time.Duration(n) * interval)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
		}
		if !time.Now().Before(until) {
			break
		}
		x.step(cs, due)
	}
	if cs.sid != "" {
		x.finish(cs, time.Now())
	}
}

// step sends the client's next request.
func (x *mix) step(cs *clientState, due time.Time) {
	if !cs.sessions {
		k := cs.matches % len(x.pool)
		cs.matches++
		body, ok := x.send(cs, opMatch, len(x.pool[k].Cell), "/v1/match", x.bodies[k], due)
		if !ok {
			return
		}
		if err := checkBody(body, x.want[k]); err != nil {
			x.r.mismatch("/v1/match of pool trip %d differs from the offline match: %v", k, err)
		}
		return
	}
	spec := x.spec(cs.sess)
	switch {
	case cs.sid == "":
		body, ok := x.send(cs, opCreate, 0, "/v1/sessions", []byte(`{"lag":`+strconv.Itoa(x.r.sz.lag)+`,"on_break":"split"}`), due)
		if !ok {
			return
		}
		var sr serve.SessionResponse
		if err := json.Unmarshal(body, &sr); err != nil || sr.ID == "" {
			x.r.mismatch("session create: bad body %q", body)
			return
		}
		cs.sid, cs.pt, cs.pushMs = sr.ID, 0, cs.pushMs[:0]
	case cs.pt < len(spec.pts):
		body := spec.push[cs.pt]
		cs.pt++
		if _, ok := x.send(cs, opPush, 1, "/v1/sessions/"+cs.sid+"/points", body, due); ok && cs.openLoop {
			cs.pushMs = append(cs.pushMs, ms(time.Since(due)))
		}
	default:
		x.finish(cs, due)
	}
}

// finish ends the client's session and keeps its body for the check.
func (x *mix) finish(cs *clientState, due time.Time) {
	body, ok := x.send(cs, opFinish, 0, "/v1/sessions/"+cs.sid+"/finish", nil, due)
	if ok {
		spec := x.spec(cs.sess)
		cs.finishes = append(cs.finishes, finished{
			spec: cs.sess, points: cs.pt, body: body,
			pushMs: append([]float64(nil), cs.pushMs...),
			full:   cs.openLoop && cs.pt == len(spec.pts),
		})
	}
	cs.sid = ""
	cs.sess++
}

// send posts one request and records its sample; a non-200 answer is a
// failed operation.
func (x *mix) send(cs *clientState, kind opKind, points int, path string, body []byte, due time.Time) ([]byte, bool) {
	id := x.lastReq.Add(1)
	req, err := http.NewRequest(http.MethodPost, x.url+path, bytes.NewReader(body))
	if err != nil {
		x.r.op(err)
		return nil, false
	}
	req.Header.Set(reqHeader, strconv.FormatInt(id, 10))
	start := time.Now()
	resp, err := x.client.Do(req)
	var out []byte
	if err == nil {
		out, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(out))
		}
	}
	end := time.Now()
	x.r.spans.add(span{Name: spanNames[kind], Req: id}, start, end)
	if !x.r.op(err) {
		return nil, false
	}
	cs.samples = append(cs.samples, sample{kind: kind, points: points, lat: end.Sub(due), sent: end.Sub(start), lag: start.Sub(due), req: id})
	return out, true
}

var spanNames = [...]string{
	opCreate: "http.POST /v1/sessions",
	opPush:   "http.POST /v1/sessions/{id}/points",
	opMatch:  "http.POST /v1/match",
	opFinish: "http.POST /v1/sessions/{id}/finish",
}

// runPhase runs both clients through one phase. The session client
// always sends at its fixed rate; the match client does too when
// matchOpen is set, and otherwise sends each request as soon as the
// previous one returns.
func (x *mix) runPhase(states []*clientState, matchOpen bool, until time.Time) (wallS float64, allocB uint64) {
	alloc0 := totalAlloc()
	begin := time.Now()
	var wg sync.WaitGroup
	for _, cs := range states {
		cs.samples = cs.samples[:0]
		var interval time.Duration
		if cs.sessions || matchOpen {
			interval = cs.openGap
		}
		wg.Add(1)
		go func(cs *clientState) {
			defer wg.Done()
			x.phase(cs, begin, interval, until)
		}(cs)
	}
	wg.Wait()
	return time.Since(begin).Seconds(), totalAlloc() - alloc0
}

// phaseStats summarises the samples of every client.
type phaseStats struct {
	push, match, lag, handler, overhead []float64 // ms
	points, matchPoints                 int
}

func collect(states []*clientState, ht *handlerTimer) phaseStats {
	var ps phaseStats
	for _, cs := range states {
		for _, s := range cs.samples {
			ps.points += s.points
			ps.lag = append(ps.lag, ms(s.lag))
			switch s.kind {
			case opPush:
				ps.push = append(ps.push, ms(s.lat))
			case opMatch:
				ps.match = append(ps.match, ms(s.lat))
				ps.matchPoints += s.points
			}
			if ht != nil {
				if d, ok := ht.get(s.req); ok {
					ps.handler = append(ps.handler, ms(d))
					ps.overhead = append(ps.overhead, ms(s.sent-d))
				}
			}
		}
	}
	return ps
}

// runServeMixed is the serve-mixed workload: an in-process serve.Server
// on a loopback listener, driven by a session client and a match client
// (see mix): first the match client in a closed loop for capacity, then
// both in an open loop at the fixed rates of sizes.
func runServeMixed(r *run) error {
	var ht *handlerTimer
	wrap := func(h http.Handler) http.Handler { return h }
	var exec *timedExec
	if r.trace {
		wrap = func(h http.Handler) http.Handler {
			ht = &handlerTimer{h: h, d: make(map[int64]time.Duration)}
			return ht
		}
		exec = &timedExec{log: r.spans}
	}

	var ls *liveServer
	var m *core.Model
	var pool []traj.Trip
	defer func() {
		if ls != nil {
			ls.stop()
		}
	}()
	err := r.repeatSetup(func(t *setupTimes) error {
		mi, genS, err := r.trainModel(m, t)
		if err != nil {
			return err
		}
		if exec != nil {
			mi.Exec = exec
		}
		start := time.Now()
		if pool, err = r.hangzhouWorkload(mi, r.sz.servePool); err != nil {
			return err
		}
		t.gen = append(t.gen, genS+time.Since(start).Seconds())
		if ls != nil {
			ls.stop()
			ls = nil
		}
		start = time.Now()
		if ls, err = startServer(mi, wrap); err != nil {
			return fmt.Errorf("start server: %w", err)
		}
		t.start = append(t.start, time.Since(start).Seconds())
		m = mi
		return nil
	})
	if err != nil {
		return err
	}

	// Reference pass: the offline match of every pool trip gives the
	// expected /v1/match body and the accuracy, and warms the router
	// the server shares. In traced runs it also yields the stage shares.
	x := &mix{r: r, pool: pool, url: ls.url, sessions: map[int]*sessionSpec{},
		bodies: make([][]byte, len(pool)), want: make([][]byte, len(pool)),
		client: &http.Client{Timeout: time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}},
	}
	defer x.client.CloseIdleConnections()
	ref := *m
	ref.Exec = nil
	ref.Cfg.Trace = r.trace
	var acc metrics.Accum
	var stages stageTotals
	var refS float64
	results := make([]*hmm.Result, len(pool))
	for i := range pool {
		start := time.Now()
		res, err := ref.Match(pool[i].Cell)
		refS += time.Since(start).Seconds()
		if !r.op(err) {
			return fmt.Errorf("reference match of pool trip %d: %w", i, err)
		}
		stages.add(res)
		results[i] = res
		acc.Add(metrics.EvalPath(m.Net, res.Path, pool[i].Path, 50))
		if x.want[i], err = matchBodyWant(res); err != nil {
			return err
		}
		if x.bodies[i], err = json.Marshal(serve.PointsRequest(pool[i].Cell)); err != nil {
			return err
		}
	}
	r.setAccuracy(&acc)

	states := []*clientState{
		{sessions: true, openGap: time.Duration(float64(time.Second) / r.sz.servePushRate)},
		{openGap: time.Duration(float64(time.Second) / r.sz.serveMatchRate)},
	}
	window := time.Duration(r.seconds * float64(time.Second))
	begin := time.Now()
	capEnd := begin.Add(window * 3 / 10)

	// Phase (a): /v1/match capacity, the match client in a closed loop
	// beside the session traffic at its fixed rate. A traced run
	// measures its first half untraced and its second half traced.
	var capWall float64
	var capAlloc uint64
	var capStats phaseStats
	var w *tracedWindow
	var traced phaseStats
	if !r.trace {
		capWall, capAlloc = x.runPhase(states, false, capEnd)
		capStats = collect(states, nil)
	} else {
		capWall, capAlloc = x.runPhase(states, false, begin.Add(window*3/20))
		capStats = collect(states, nil)
		w = beginTrace()
		exec.reset()
		tw, _ := x.runPhase(states, false, capEnd)
		traced = collect(states, ht)
		r.set("trace.overhead_share", 1-(float64(traced.matchPoints)/tw)/(float64(capStats.matchPoints)/capWall))
	}

	// Phase (b): both clients in an open loop at their fixed rates.
	_, openAlloc := x.runPhase(states, true, begin.Add(window))
	open := collect(states, ht)
	var d obsDelta
	if r.trace {
		d = w.end()
	}

	fmt.Fprintf(os.Stderr, "perfbench: closed loop %.1f /v1/match/s over %.1fs; open loop %d /v1/match at %.0f/s, %d pushes at %.0f/s offered\n",
		float64(len(capStats.match))/capWall, capWall, len(open.match), r.sz.serveMatchRate, len(open.push), r.sz.servePushRate)
	r.set("match_points_per_s", float64(capStats.matchPoints)/capWall)
	r.set("match_p50_ms", quantile(open.match, 0.50))
	r.set("match_p90_ms", quantile(open.match, 0.90))
	r.set("push_p50_ms", quantile(open.push, 0.50))
	r.set("push_p90_ms", quantile(open.push, 0.90))
	r.set("alloc_kb_per_point", float64(capAlloc+openAlloc)/1024/float64(capStats.points+open.points))

	// Output check: every finished session equals a direct stream of the
	// same points with the same lag and break policy.
	split := *m
	split.Exec = nil
	split.Cfg.OnBreak = hmm.BreakSplit
	wh := m.WeightsHash()
	var arm pushArm
	for _, cs := range states {
		for _, f := range cs.finishes {
			spec := x.spec(f.spec)
			sm := split.NewStream(r.sz.lag)
			var direct []float64
			var perr error
			for _, p := range spec.pts[:f.points] {
				start := time.Now()
				if _, perr = sm.Push(p); perr != nil {
					break
				}
				direct = append(direct, ms(time.Since(start)))
			}
			if perr != nil {
				r.mismatch("session %d: direct stream failed: %v", f.spec, perr)
				continue
			}
			arm.lat = append(arm.lat, direct...)
			if r.trace && f.points > 0 {
				if b, err := core.EncodeStreamSnapshot(sm, "bench", wh); r.op(err) {
					arm.snapBPP = append(arm.snapBPP, float64(len(b))/float64(f.points))
				}
			}
			sm.Flush()
			want, err := finishBodyWant(sm)
			if err != nil {
				return err
			}
			if err := checkBody(f.body, want); err != nil {
				r.mismatch("session %d (%d points): finish body differs from a direct stream: %v", f.spec, f.points, err)
			}
			if f.full {
				arm.addSession(f.pushMs, m.Net, sm.Path(), &spec.session)
			}
		}
	}
	if arm.sessions == 0 {
		return fmt.Errorf("no session was fully pushed in the open-loop phase; the window is too short")
	}
	r.set("push_growth_x", arm.growth())
	r.set("stream_cmf50", mean(arm.cmf))

	if !r.trace {
		return nil
	}
	tracedOpS := (sum(traced.handler) + sum(open.handler)) / 1e3
	tracedPts := float64(traced.points + open.points)
	r.traceOpS = tracedOpS
	r.setCounterMetrics(d, tracedPts)
	r.setMLPMetrics(exec, tracedPts, tracedOpS)
	r.setStageShares(stages, refS)
	r.setTreeShare(d, tracedOpS)
	r.setStreamLayer(arm)
	r.setLayerProbes(m.Net, pool, m.Cfg.K)
	r.set("serve.handler_ms_p50", median(open.handler))
	r.set("serve.client_overhead_ms", median(open.overhead))
	r.set("serve.shed_share", ratio(d.counters["serve.shed"], d.counters["serve.requests"]))
	r.set("loadgen.lag_ms_p99", quantile(open.lag, 0.99))
	r.setIdle("roadnet.route_us_per_call")

	// Wire codec cost, bench-side, on the pool trips.
	var dec, enc time.Duration
	for i := range pool {
		start := time.Now()
		var req serve.MatchRequest
		if err := json.Unmarshal(x.bodies[i], &req); err != nil {
			return err
		}
		if _, err := req.Trajectory(m.Cells); !r.op(err) {
			continue
		}
		mid := time.Now()
		if _, err := json.Marshal(serve.ResultJSON(results[i])); err != nil {
			return err
		}
		end := time.Now()
		dec += mid.Sub(start)
		enc += end.Sub(mid)
		id := r.spans.id()
		r.spans.add(span{Name: "serve.decode", Req: id}, start, mid)
		r.spans.add(span{Name: "serve.encode", Req: id}, mid, end)
	}
	r.set("serve.decode_us_per_req", float64(dec.Nanoseconds())/1e3/float64(len(pool)))
	r.set("serve.encode_us_per_req", float64(enc.Nanoseconds())/1e3/float64(len(pool)))
	obs.Default.Disable()
	return nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
