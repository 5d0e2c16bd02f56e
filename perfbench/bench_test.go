package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"regexp"
	"sort"
	"testing"

	"repro/internal/hmm"
	"repro/internal/serve"
	"repro/internal/synth"
)

// tinySizes shrinks every workload so the smoke tests run in seconds.
var tinySizes = sizes{
	hzScale:      0.02,
	trainTrips:   10,
	offlineTrips: 4,
	sessions:     1,
	sessionTrips: 2,
	lag:          2,

	metroScale:        0.01,
	classicalTrips:    4,
	classicalSessions: 1,
	classicalRefTrips: 2,
	classicalAccTrips: 3,

	servePool:      4,
	serveMatchRate: 20,
	servePushRate:  100,

	setupReps: 1,
}

type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Seconds   int      `json:"run_seconds"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkFileMatchesCode pins BENCHMARK.json to the metric and
// workload tables the command reports from: same names, units and
// directions, every name well-formed and declared once.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := readBenchmarkFile(t)
	seen := map[string]bool{}
	check := func(name, unit, better string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q declared twice", name)
		}
		seen[name] = true
		if better != "higher" && better != "lower" {
			t.Errorf("%s: direction %q, want higher or lower", name, better)
		}
		if unit == "" {
			t.Errorf("%s: no unit", name)
		}
	}
	var wl []string
	for _, w := range bf.Workloads {
		check(w.Name, "-", "lower")
		wl = append(wl, w.Name)
	}
	sort.Strings(wl)
	if got, want := wl, workloadNames(); !equalStrings(got, want) {
		t.Errorf("workloads %v, code runs %v", got, want)
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, code %d+%d", len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range bf.EndToEnd {
		check(m.Name, m.Unit, m.Better)
		if d := endToEnd[i]; d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better {
			t.Errorf("end_to_end[%d] = %+v, code declares %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range bf.PerLayer {
		check(m.Name, m.Unit, m.Better)
		if d := perLayer[i]; d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better {
			t.Errorf("per_layer[%d] = %+v, code declares %+v", i, m, d)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSmokeEveryWorkload runs each workload at tiny scale in both
// modes and checks it emits exactly the metrics BENCHMARK.json names
// for the mode, with every output check passing.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	bf := readBenchmarkFile(t)
	want := map[bool][]string{}
	for _, m := range bf.EndToEnd {
		want[false] = append(want[false], m.Name)
	}
	for _, m := range bf.PerLayer {
		want[true] = append(want[true], m.Name)
	}
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			r := newRun(name, 1, 3, trace, tinySizes)
			if err := workloads[name](r); err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			res, err := r.result()
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d mismatches=%v", name, trace, res.Correct, res.Failed, r.mismatches)
			}
			var got []string
			for k := range res.Metrics {
				got = append(got, k)
			}
			sort.Strings(got)
			w := append([]string(nil), want[trace]...)
			sort.Strings(w)
			if !equalStrings(got, w) {
				t.Errorf("%s trace=%v: metrics %v, BENCHMARK.json names %v", name, trace, got, w)
			}
			line, err := json.Marshal(res)
			if err != nil {
				t.Errorf("%s trace=%v: result does not encode: %v", name, trace, err)
			}
			var back map[string]json.RawMessage
			if err := json.Unmarshal(line, &back); err != nil || len(back) != 4 {
				t.Errorf("%s trace=%v: result line has keys %v, want correct/attempted/failed/metrics", name, trace, back)
			}
		}
	}
}

// TestWorkloadDeterministic checks the same workload seed generates
// the same inputs, and another seed different ones.
func TestWorkloadDeterministic(t *testing.T) {
	cfg := synth.SyntheticMetro(tinySizes.metroScale, 0)
	digest := func(seed int64) string {
		city, err := presetCity(cfg)
		if err != nil {
			t.Fatal(err)
		}
		trips, err := heldOutTrips(city, cfg, seed, 6)
		if err != nil {
			t.Fatal(err)
		}
		sessions := chainSessions(trips, 1, 2, 3)
		b, err := json.Marshal([]any{trips, sessions[0].pts, sessions[1].pts})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	a, b := digest(7), digest(7)
	if a != b {
		t.Fatal("seed 7 generated two different workloads")
	}
	if a == digest(8) {
		t.Fatal("seeds 7 and 8 generated the same workload")
	}
}

// TestChainedSessionTimesIncrease checks a chained session's
// timestamps strictly increase across trip boundaries.
func TestChainedSessionTimesIncrease(t *testing.T) {
	cfg := synth.SyntheticMetro(tinySizes.metroScale, 0)
	city, err := presetCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	trips, err := heldOutTrips(city, cfg, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := chainSessions(trips, 0, 1, 4)[0]
	for i := 1; i < len(s.pts); i++ {
		if s.pts[i].T <= s.pts[i-1].T {
			t.Fatalf("point %d: t=%v after %v", i, s.pts[i].T, s.pts[i-1].T)
		}
	}
}

// TestParityCheckRejectsPerturbedBody serves one trip and one session
// from a tiny model: the served bodies pass the parity checks, and the
// same bodies with one byte changed fail them.
func TestParityCheckRejectsPerturbedBody(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	r := newRun("serve-mixed", 1, 1, false, tinySizes)
	m, _, err := r.trainModel(nil, &setupTimes{})
	if err != nil {
		t.Fatal(err)
	}
	trips, err := r.hangzhouWorkload(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := startServer(m, func(h http.Handler) http.Handler { return h })
	if err != nil {
		t.Fatal(err)
	}
	defer ls.stop()

	post := func(path string, body []byte) []byte {
		t.Helper()
		resp, err := http.Post(ls.url+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s %v", path, resp.StatusCode, out, err)
		}
		return out
	}
	perturbed := func(b []byte) []byte {
		p := append([]byte(nil), b...)
		i := bytes.IndexAny(p, "123456789")
		p[i] = '0' + (p[i]-'0')%9 + 1 // another nonzero digit
		return p
	}

	res, err := m.Match(trips[0].Cell)
	if err != nil {
		t.Fatal(err)
	}
	want, err := matchBodyWant(res)
	if err != nil {
		t.Fatal(err)
	}
	req, _ := json.Marshal(serve.PointsRequest(trips[0].Cell))
	got := post("/v1/match", req)
	if err := checkBody(got, want); err != nil {
		t.Fatalf("served /v1/match body fails parity: %v", err)
	}
	if checkBody(perturbed(got), want) == nil {
		t.Fatal("parity check accepted a perturbed /v1/match body")
	}

	s := chainSessions(trips, 0, 1, 2)[0]
	var created serve.SessionResponse
	if err := json.Unmarshal(post("/v1/sessions", []byte(`{"lag":2,"on_break":"split"}`)), &created); err != nil {
		t.Fatal(err)
	}
	split := *m
	split.Cfg.OnBreak = hmm.BreakSplit
	sm := split.NewStream(2)
	for _, p := range s.pts {
		body, _ := json.Marshal(serve.PushRequest{Points: []serve.Point{{Tower: int(p.Tower), X: p.P.X, Y: p.P.Y, T: p.T}}})
		post("/v1/sessions/"+created.ID+"/points", body)
		if _, err := sm.Push(p); err != nil {
			t.Fatal(err)
		}
	}
	got = post("/v1/sessions/"+created.ID+"/finish", nil)
	sm.Flush()
	if want, err = finishBodyWant(sm); err != nil {
		t.Fatal(err)
	}
	if err := checkBody(got, want); err != nil {
		t.Fatalf("served finish body fails parity: %v", err)
	}
	if checkBody(perturbed(got), want) == nil {
		t.Fatal("parity check accepted a perturbed finish body")
	}
}
