package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/hmm"
	"repro/internal/obs"
)

// modelSeed seeds model initialisation and training sampling. The
// cities and the training trips use the synth presets' own fixed seeds,
// so only the workload trips depend on -seed.
const modelSeed = 1

// sizes fixes how much work each workload does. defaultSizes is what
// BENCHMARK.json runs; the smoke tests use a tiny variant.
type sizes struct {
	hzScale      float64 // hangzhou preset scale (0.04 = 5,944 segments)
	trainTrips   int     // trips generated for the training dataset
	offlineTrips int     // held-out trips matched by offline-lhmm
	sessions     int     // in-process streaming sessions (offline-lhmm)
	sessionTrips int     // chained trips per streaming session
	lag          int     // streaming emit lag in points

	metroScale        float64 // metro preset scale for classical-cold-routes
	classicalTrips    int     // unseen trips for classical-cold-routes
	classicalSessions int     // in-process streaming sessions (classical)
	classicalRefTrips int     // trips re-matched on one shared warm router
	classicalAccTrips int     // trips the accuracy metrics cover

	servePool      int     // held-out trips behind serve-mixed traffic
	serveMatchRate float64 // offered /v1/match requests/s in the open loop
	servePushRate  float64 // offered session requests/s in the open loop

	setupReps int // set-ups per run; setup_s is their median
}

var defaultSizes = sizes{
	hzScale:      0.04,
	trainTrips:   12,
	offlineTrips: 200,
	sessions:     8,
	sessionTrips: 10,
	lag:          2,

	metroScale:        0.03,
	classicalTrips:    240,
	classicalSessions: 12,
	classicalRefTrips: 20,
	classicalAccTrips: 100,

	servePool:      80,
	serveMatchRate: 12,
	servePushRate:  60,

	setupReps: 3,
}

// run carries one invocation's settings and everything it measured.
type run struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sz       sizes

	metrics map[string]float64

	mu         sync.Mutex // guards the counts below; serve-mixed clients share them
	attempted  int
	failed     int // failed operations
	errShown   int
	mismatched int      // failed output checks
	mismatches []string // the first of them

	spans    *spanLog
	layers   []layerRow // per-layer busy time for the traced table
	traceOpS float64    // timed operation seconds of the traced window
}

func newRun(workload string, seed int64, seconds float64, trace bool, sz sizes) *run {
	r := &run{
		workload: workload, seed: seed, seconds: seconds, trace: trace, sz: sz,
		metrics: make(map[string]float64),
		spans:   newSpanLog(),
	}
	r.spans.enabled.Store(trace)
	return r
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

// op counts one attempted operation and reports whether it succeeded.
func (r *run) op(err error) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err == nil {
		return true
	}
	r.failed++
	if r.errShown < 5 {
		r.errShown++
		fmt.Fprintf(os.Stderr, "perfbench: operation failed: %v\n", err)
	}
	return false
}

// mismatch records a failed output check.
func (r *run) mismatch(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.mismatched++
	if len(r.mismatches) < 20 {
		r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
	}
}

// setIdle reports 0 for per-layer metrics a workload does not load.
func (r *run) setIdle(names ...string) {
	for _, n := range names {
		r.set(n, 0)
	}
}

// quantile is the nearest-rank q-quantile of xs (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// totalAlloc returns the process's cumulative heap allocation in bytes.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// resultDigest hashes everything a match returns to its caller: path,
// per-point matches, shortcut/dead flags, gaps and score.
func resultDigest(res *hmm.Result) [32]byte {
	h := sha256.New()
	var b []byte
	b = binary.LittleEndian.AppendUint64(b, uint64(len(res.Path)))
	for _, s := range res.Path {
		b = binary.LittleEndian.AppendUint32(b, uint32(s))
	}
	for i, c := range res.Matched {
		b = binary.LittleEndian.AppendUint32(b, uint32(c.Seg))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c.Frac))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c.Obs))
		var flags byte
		if i < len(res.Skipped) && res.Skipped[i] {
			flags |= 1
		}
		if i < len(res.Dead) && res.Dead[i] {
			flags |= 2
		}
		b = append(b, flags)
	}
	for _, g := range res.Gaps {
		b = binary.LittleEndian.AppendUint64(b, uint64(g.From)<<32|uint64(g.To))
	}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(res.Score))
	h.Write(b)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// machine is the hardware and toolchain record printed with every result.
type machine struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu_model"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func (m machine) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s cpu=%q", m.NumCPU, m.GOMAXPROCS, m.GoVersion, m.CPU)
}

func machineInfo() machine {
	return machine{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
}

// cpuModel reads the kernel's CPU description; "unknown" where the
// platform does not expose one.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// obsDelta is the change of the Default registry's counters and
// histogram sums between two snapshots.
type obsDelta struct {
	counters map[string]float64
	sums     map[string]float64
}

func snapshotDelta(before, after obs.Snapshot) obsDelta {
	d := obsDelta{counters: map[string]float64{}, sums: map[string]float64{}}
	for k, v := range after.Counters {
		d.counters[k] = float64(v - before.Counters[k])
	}
	for k, h := range after.Histograms {
		d.sums[k] = h.Sum - before.Histograms[k].Sum
	}
	return d
}

// setCounterMetrics reports the per-layer metrics read from program
// counters over a traced window that matched the given points.
func (r *run) setCounterMetrics(d obsDelta, points float64) {
	c := d.counters
	r.set("roadnet.routes_per_point", ratio(c["router.routes"], points))
	r.set("roadnet.tree_builds_per_point", ratio(c["router.cache.misses"], points))
	r.set("roadnet.cache_hit_rate", ratio(c["router.cache.hits"], c["router.cache.hits"]+c["router.cache.misses"]))
	r.set("core.obs_rows_per_point", ratio(c["core.obs.batched.rows"], points))
	r.set("core.trans_rows_per_point", ratio(c["core.trans.batched.rows"], points))
	r.set("core.roadprob_hit_rate", ratio(c["core.roadprob.cache.hits"], c["core.roadprob.cache.hits"]+c["core.roadprob.cache.misses"]))
	r.set("hmm.shortcut_adoption_rate", ratio(c["hmm.shortcut.adoptions"], c["hmm.shortcut.attempts"]))
	r.set("hmm.transitions_per_point", ratio(c["hmm.transitions.evaluated"], points))
	r.set("hmm.unreachable_share", ratio(c["hmm.transitions.unreachable"], c["hmm.transitions.evaluated"]))
}

// stageTotals sums the Result.Trace stage timings of traced matches.
type stageTotals struct {
	candidates, transition, viterbi, shortcuts, expand float64
}

func (s *stageTotals) add(res *hmm.Result) {
	if res.Trace == nil {
		return
	}
	st := res.Trace.Stages
	s.candidates += st.CandidatesS
	s.transition += st.TransitionS
	s.viterbi += st.ViterbiS
	s.shortcuts += st.ShortcutsS
	s.expand += st.ExpandS
}

// setStageShares reports each stage as a share of the bench-timed
// match seconds.
func (r *run) setStageShares(s stageTotals, matchS float64) {
	r.set("hmm.candidates_share", ratio(s.candidates, matchS))
	r.set("hmm.transition_share", ratio(s.transition, matchS))
	r.set("hmm.viterbi_share", ratio(s.viterbi, matchS))
	r.set("hmm.shortcuts_share", ratio(s.shortcuts, matchS))
	r.set("hmm.expand_share", ratio(s.expand, matchS))
}

// addStageRows adds the stage timings to the traced per-layer table.
func (r *run) addStageRows(s stageTotals) {
	r.layers = append(r.layers,
		layerRow{"hmm.candidates", s.candidates},
		layerRow{"hmm.viterbi", s.viterbi},
		layerRow{"  hmm.transition (in viterbi)", s.transition},
		layerRow{"hmm.shortcuts", s.shortcuts},
		layerRow{"hmm.expand", s.expand},
	)
}
