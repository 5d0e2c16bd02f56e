// Command perfbench is the repository's canonical benchmark. It runs
// one named workload against the matcher from outside the program —
// through the public entry points of synth, traj, roadnet, core, hmm
// and serve — checks every output, and prints one JSON result line.
//
//	perfbench -workload offline-lhmm -seed 1 -seconds 20 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics; with
// -trace 1 it carries the per-layer metrics, prints the per-layer
// table to standard error and writes the bench-side span file. See
// README.md in this directory for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metricDef declares one reported metric. The set must equal the
// end_to_end and per_layer lists of BENCHMARK.json (a test pins it).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"match_points_per_s", "1/s", "higher"},
	{"match_p50_ms", "ms", "lower"},
	{"match_p90_ms", "ms", "lower"},
	{"push_p50_ms", "ms", "lower"},
	{"push_p90_ms", "ms", "lower"},
	{"push_growth_x", "x", "lower"},
	{"precision", "ratio", "higher"},
	{"recall", "ratio", "higher"},
	{"cmf50", "ratio", "lower"},
	{"stream_cmf50", "ratio", "lower"},
	{"alloc_kb_per_point", "KiB", "lower"},
}

var perLayer = []metricDef{
	{"synth.generate_s", "s", "lower"},
	{"core.train_s", "s", "lower"},
	{"serve.start_s", "s", "lower"},
	{"traj.sanitize_us_per_trip", "us", "lower"},
	{"roadnet.near_us_per_point", "us", "lower"},
	{"roadnet.route_us_per_call", "us", "lower"},
	{"roadnet.routes_per_point", "count", "lower"},
	{"roadnet.tree_builds_per_point", "count", "lower"},
	{"roadnet.tree_build_share", "ratio", "lower"},
	{"roadnet.cache_hit_rate", "ratio", "higher"},
	{"nn.mlp_calls_per_point", "count", "lower"},
	{"nn.mlp_rows_per_call", "count", "higher"},
	{"nn.mlp_us_per_row", "us", "lower"},
	{"nn.mlp_share", "ratio", "lower"},
	{"core.obs_rows_per_point", "count", "lower"},
	{"core.trans_rows_per_point", "count", "lower"},
	{"core.roadprob_hit_rate", "ratio", "higher"},
	{"hmm.candidates_share", "ratio", "lower"},
	{"hmm.transition_share", "ratio", "lower"},
	{"hmm.viterbi_share", "ratio", "lower"},
	{"hmm.shortcuts_share", "ratio", "lower"},
	{"hmm.expand_share", "ratio", "lower"},
	{"hmm.shortcut_adoption_rate", "ratio", "higher"},
	{"hmm.transitions_per_point", "count", "lower"},
	{"hmm.unreachable_share", "ratio", "lower"},
	{"stream.push_direct_us_p50", "us", "lower"},
	{"stream.snapshot_bytes_per_point", "B", "lower"},
	{"serve.decode_us_per_req", "us", "lower"},
	{"serve.encode_us_per_req", "us", "lower"},
	{"serve.handler_ms_p50", "ms", "lower"},
	{"serve.client_overhead_ms", "ms", "lower"},
	{"serve.shed_share", "ratio", "lower"},
	{"loadgen.lag_ms_p99", "ms", "lower"},
	{"trace.overhead_share", "ratio", "lower"},
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"offline-lhmm":          runOffline,
	"classical-cold-routes": runClassical,
	"serve-mixed":           runServeMixed,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name: offline-lhmm, classical-cold-routes or serve-mixed")
	seed := flag.Int64("seed", 1, "workload seed (the trained model and cities use fixed seeds)")
	seconds := flag.Float64("seconds", 20, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	outdir := flag.String("outdir", ".bench_build/perfbench", "directory for the span file")
	flag.Parse()

	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: -workload {%s} -seed N -seconds S -trace 0|1\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	r := newRun(*workload, *seed, *seconds, *trace == 1, defaultSizes)
	mach := machineInfo()
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d model_seed=%d seconds=%g trace=%d %s\n",
		*workload, *seed, modelSeed, *seconds, *trace, mach)
	if err := fn(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	res, err := r.result()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if r.trace {
		r.printLayerTable(os.Stderr)
		path := filepath.Join(*outdir, fmt.Sprintf("spans-%s-seed%d.jsonl", *workload, *seed))
		if err := r.spans.write(path, *workload, *seed, mach); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	}
	for _, msg := range r.mismatches {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", msg)
	}
	// The machine record precedes the result so every result carries it.
	rec, _ := json.Marshal(map[string]any{
		"workload": *workload, "seed": *seed, "model_seed": modelSeed,
		"seconds": *seconds, "trace": *trace, "machine": mach,
	})
	fmt.Println(string(rec))
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// result assembles the reported metric set for the run's mode. A
// metric the workload failed to produce, or produced as NaN/Inf, is a
// benchmark bug and fails the run.
func (r *run) result() (result, error) {
	defs := endToEnd
	if r.trace {
		defs = perLayer
	}
	res := result{
		Correct:   r.mismatched == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed + r.mismatched,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("no operation attempted")
	}
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok {
			return res, fmt.Errorf("metric %s not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return res, nil
}
