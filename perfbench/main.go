// Command perfbench is the repository benchmark: it runs one named
// workload through iddqsyn's public entry points, checks every output,
// and prints each metric by name with its unit and better direction.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run from the repository root (perfbench/run.sh builds and starts it):
//
//	sh perfbench/run.sh --workload synth-c1908 --seed 1 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics with nothing observing the
// program. --trace 1 is a separate run that times each layer's public
// calls from this package, keeps the spans in memory and writes them to
// .bench_build/perfbench/ at the end, and reports the per-layer metrics.
// Workloads, metrics and the layer -> end-to-end map are described in
// perfbench/README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// metricDef is one reported metric; the table below must match
// BENCHMARK.json (TestMetricsMatchBenchmarkJSON).
type metricDef struct {
	name, unit, better string
}

// endToEndMetrics are what a user of the system sees. Every workload
// reports every one; "op" is the workload's unit of work (a synthesis,
// or a serve job from its due time to its fetched result).
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},       // median of the run's set-ups
	{"latency_ms", "ms", "lower"},   // median latency of a fresh op
	{"repeat_ms", "ms", "lower"},    // median latency of repeating a finished op
	{"final_cost", "cost", "lower"}, // median weighted C(Π) of fresh results
	{"worst_d", "ratio", "higher"},  // median worst-module discriminability
	{"ok_share", "share", "higher"}, // succeeded ÷ attempted ops
	{"peak_rss_mb", "MB", "lower"},  // peak resident memory of the process
}

// perLayerMetrics come from the traced run. A layer a workload does not
// reach reports 0 (serve.* on the synth workloads).
var perLayerMetrics = []metricDef{
	{"celllib.annotate_ms", "ms", "lower"},
	{"estimate.new_s", "s", "lower"},
	{"estimate.eval_module_us_p50", "us", "lower"},
	{"estimate.bic_delay_us_p50", "us", "lower"},
	{"standard.module_size", "count", "higher"},
	{"standard.start_s", "s", "lower"},
	{"standard.singleton_share", "share", "lower"},
	{"partition.new_ms", "ms", "lower"},
	{"partition.clone_us_p50", "us", "lower"},
	{"partition.clone_us_tail", "us", "lower"},
	{"partition.recost_us_p50", "us", "lower"},
	{"partition.recost_us_tail", "us", "lower"},
	{"partition.modules", "count", "lower"},
	{"partition.worst_d", "ratio", "higher"},
	{"evolution.optimize_s", "s", "lower"},
	{"evolution.generation_ms_p50", "ms", "lower"},
	{"evolution.generation_ms_tail", "ms", "lower"},
	{"evolution.generations", "count", "lower"},
	{"evolution.evaluations", "count", "lower"},
	{"evolution.eval_us", "us", "lower"},
	{"evolution.accept_ratio", "share", "higher"},
	{"partcheck.verify_ms", "ms", "lower"},
	{"bic.new_chip_ms", "ms", "lower"},
	{"core.synth_s", "s", "lower"},
	{"core.untraced_synth_s", "s", "lower"},
	{"core.trace_overhead_pct", "%", "lower"},
	{"core.self_ms", "ms", "lower"},
	{"core.feasible_share", "share", "higher"},
	{"serve.new_ms", "ms", "lower"},
	{"serve.submit_ms_p50", "ms", "lower"},
	{"serve.submit_ms_tail", "ms", "lower"},
	{"serve.hit_submit_ms_p50", "ms", "lower"},
	{"serve.queue_wait_ms_p50", "ms", "lower"},
	{"serve.queue_wait_ms_tail", "ms", "lower"},
	{"serve.run_ms_p50", "ms", "lower"},
	{"serve.result_ms_p50", "ms", "lower"},
	{"serve.job_tail_ms", "ms", "lower"},
	{"serve.jobs", "count", "higher"},
	{"serve.sched_late_ms_tail", "ms", "lower"},
	{"serve.journal_append_us_p50", "us", "lower"},
	{"serve.journal_bytes_per_job", "B", "lower"},
	{"serve.cache_hit_ratio", "share", "higher"},
}

// args are the command-line settings of one run.
type args struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// result is what one run measured.
type result struct {
	attempted, failed int
	failures          []string
	values            map[string]float64
	notes             []string // human-readable lines: tails with their percentile and sample count
	samples           map[string][]float64
	spans             []Span
	rssMB             float64 // peak resident memory at the end of the measured phase
}

func newResult() *result {
	return &result{values: map[string]float64{}, samples: map[string][]float64{}}
}

// fail counts one failed operation and keeps its reason.
func (r *result) fail(format string, a ...any) {
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf(format, a...))
}

// endToEnd records the end-to-end metrics every workload measures itself;
// report adds ok_share, and peak_rss_mb from rssMB.
func (r *result) endToEnd(setup, latency, repeat, cost, worstD float64) {
	r.values["setup_s"] = setup
	r.values["latency_ms"] = latency
	r.values["repeat_ms"] = repeat
	r.values["final_cost"] = cost
	r.values["worst_d"] = worstD
}

// setTail records a tail metric by the percentile rule and notes which
// percentile it is and over how many samples.
func (r *result) setTail(name string, xs []float64) {
	v, q, n := tail(xs, 0.9)
	r.values[name] = v
	r.notes = append(r.notes, fmt.Sprintf("%s = p%g of %d samples", name, 100*q, n))
}

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run(argv []string) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var a args
	var trace int
	fs.StringVar(&a.workload, "workload", "", "workload name: synth-c1908, synth-20k or serve-c17")
	fs.Int64Var(&a.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	fs.IntVar(&a.seconds, "seconds", 30, "measurement length; sets the operation count")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(argv); err != nil {
		return 2, err
	}
	a.trace = trace == 1
	if a.seconds < 1 || (trace != 0 && trace != 1) {
		return 2, errors.New("--seconds must be >= 1 and --trace 0 or 1")
	}
	if _, err := os.Stat("go.mod"); err != nil {
		return 2, errors.New("run from the repository root (go.mod not found)")
	}
	env, err := environment()
	if err != nil {
		return 1, err
	}
	var res *result
	if w, ok := synthWorkloads[a.workload]; ok {
		res, err = runSynth(a.workload, w, a)
	} else if a.workload == "serve-c17" {
		res, err = runServe(a)
	} else {
		return 2, fmt.Errorf("unknown workload %q", a.workload)
	}
	if err != nil {
		return 1, err
	}
	return 0, report(a, env, res)
}

// report prints the human-readable lines, writes the run file, and
// prints the result object as the last line of standard output.
func report(a args, env map[string]any, res *result) error {
	defs := endToEndMetrics
	if a.trace {
		defs = perLayerMetrics
	} else {
		res.values["ok_share"] = ratio(float64(res.attempted-res.failed), float64(res.attempted))
		res.values["peak_rss_mb"] = res.rssMB
	}
	metrics := map[string]any{}
	for _, d := range defs {
		v := res.values[d.name] // 0 for a layer this workload does not reach
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
		fmt.Printf("%-32s %14.6g %-6s (%s is better)\n", d.name, v, d.unit, d.better)
	}
	for _, n := range res.notes {
		fmt.Println("  " + n)
	}
	for _, f := range res.failures {
		fmt.Println("FAILED:", f)
	}
	envJSON, err := json.Marshal(env)
	if err != nil {
		return err
	}
	fmt.Printf("env %s\n", envJSON)

	dir := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", a.workload, a.seed, btoi(a.trace)))
	runFile, err := json.MarshalIndent(map[string]any{
		"workload": a.workload, "seed": a.seed, "seconds": a.seconds, "trace": a.trace,
		"env": env, "metrics": metrics, "samples": res.samples, "failures": res.failures,
		"notes": res.notes,
	}, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", runFile, 0o644); err != nil {
		return err
	}
	if a.trace {
		if err := writeSpans(base+"-spans.json", res.spans); err != nil {
			return err
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0 && res.attempted > 0,
		"attempted": max(res.attempted, 1),
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
