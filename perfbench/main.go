// Command perfbench is the repository's end-to-end benchmark. One run
// measures one workload for a stated number of seconds and prints, as
// the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) report the per-layer metrics and write the request spans
// under .bench_build. The line before the result carries the run's
// environment and per-phase request counts. README.md beside this file
// lists every metric and why each workload exists.
//
//	bash perfbench/run.sh --workload fastpath --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run reports, whatever the
// workload: the contract asks each workload for the same set.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"max_rate_rps", "1/s"},
	{"ok_ratio", "ratio"},
	{"peak_heap_mib", "MiB"},
}

// perLayer are the metrics every traced run reports. A layer the
// workload does not exercise is copied from another workload by
// fillLayers.
var perLayer = []metricDef{
	{"allocclient.call_us.p50", "us"},
	{"allocclient.call_us.p99", "us"},
	{"allocclient.self_us.p50", "us"},
	{"allocclient.retries", "count"},
	{"allocclient.failovers", "count"},
	{"allocclient.binary_ratio", "ratio"},
	{"http.roundtrip_us.p50", "us"},
	{"allocsvc.handler_us.coord.p50", "us"},
	{"allocsvc.handler_us.plan.p50", "us"},
	{"allocsvc.handler_us.schedule.p50", "us"},
	{"allocsvc.handler_us.tree.p50", "us"},
	{"allocsvc.handler_us.recoord.p50", "us"},
	{"allocsvc.self_us.p50", "us"},
	{"allocsvc.serve_binary_us.p50", "us"},
	{"allocsvc.coalesce_ratio", "ratio"},
	{"allocsvc.rejected_ratio", "ratio"},
	{"allocsvc.timeout_ratio", "ratio"},
	{"wire.coord_req_decode_ns", "ns"},
	{"wire.coord_resp_encode_ns", "ns"},
	{"decisiontable.lookup_ns.p50", "ns"},
	{"decisiontable.hit_ratio", "ratio"},
	{"decisiontable.build_s", "s"},
	{"decisiontable.build_s.max", "s"},
	{"evalpool.hit_ratio", "ratio"},
	{"evalpool.sim_runs_per_req", "count"},
	{"evalpool.evaluate_us.hit", "us"},
	{"evalpool.evaluate_us.miss", "us"},
	{"sim.run_cpu_us", "us"},
	{"sim.run_gpu_us", "us"},
	{"profile.cpu_ms", "ms"},
	{"coord.compute_us", "us"},
	{"dyncoord.plan_us", "us"},
	{"cluster.schedule_us", "us"},
	{"powertree.curves_ms.64", "ms"},
	{"powertree.curves_ms.1024", "ms"},
	{"powertree.curves_ms.4096", "ms"},
	{"powertree.solve_ms.64", "ms"},
	{"powertree.solve_ms.1024", "ms"},
	{"powertree.solve_ms.4096", "ms"},
	{"recoord.run_ms", "ms"},
	{"recoord.switches_per_run", "count"},
	{"des.fast_ns_per_event", "ns"},
	{"des.exact_ns_per_event", "ns"},
	{"des.fast_events_per_s", "1/s"},
	{"des.exact_events_per_s", "1/s"},
	{"des.events", "count"},
	{"des.jobs", "count"},
	{"bench.gen_lag_ms.p99", "ms"},
	{"bench.latency_p99_ms", "ms"},
	{"bench.error_ratio", "ratio"},
	{"bench.accounted_ratio", "ratio"},
	{"bench.tracing_overhead_ratio", "ratio"},
}

// opts are one run's settings.
type opts struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	procs    int
	spans    string // where a traced run writes its spans
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates one run's outcome.
type report struct {
	o         opts
	mu        sync.Mutex
	attempted int64
	failed    int64
	failures  []string
	values    map[string]float64
	phases    []*phaseResult
	info      map[string]any
	peakHeap  float64 // MiB, see heapCheckpoint
}

func newReport(o opts) *report {
	return &report{o: o, values: map[string]float64{}, info: map[string]any{}}
}

// set records a metric of the run's mode; naming a metric that is not
// defined is a bug.
func (r *report) set(name string, v float64) {
	defs := endToEnd
	if r.o.trace {
		defs = perLayer
	}
	for _, d := range defs {
		if d.name == name {
			r.values[name] = v
			return
		}
	}
	panic("perfbench: undefined metric " + name)
}

// count adds operations to the attempted and failed totals.
func (r *report) count(attempted, failed int) {
	r.mu.Lock()
	r.attempted += int64(attempted)
	r.failed += int64(failed)
	r.mu.Unlock()
}

// maxFailures bounds the failure reasons a run keeps for its report.
const maxFailures = 20

// fail records one failed operation and why.
func (r *report) fail(err error) {
	r.mu.Lock()
	r.failed++
	if len(r.failures) < maxFailures {
		r.failures = append(r.failures, err.Error())
	}
	r.mu.Unlock()
}

// check runs one correctness check as an attempted operation.
func (r *report) check(err error) {
	r.count(1, 0)
	if err != nil {
		r.fail(err)
	}
}

// result renders the final line. Every metric of the mode is present;
// an end-to-end metric that was never measured is a bug.
func (r *report) result() (map[string]any, error) {
	defs := endToEnd
	if r.o.trace {
		defs = perLayer
	}
	ms := map[string]metric{}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && !r.o.trace {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		ms[d.name] = metric{Value: v, Unit: d.unit}
	}
	attempted := r.attempted
	if attempted < 1 {
		attempted = 1
	}
	return map[string]any{
		"correct":   r.failed == 0,
		"attempted": attempted,
		"failed":    r.failed,
		"metrics":   ms,
	}, nil
}

// environment describes the machine and build a run measured.
func environment(o opts) map[string]any {
	env := map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"go_version": runtime.Version(),
		"commit":     "unknown",
		"dirty":      false,
		"seed":       o.seed,
		"workload":   o.workload,
		"seconds":    o.seconds,
		"trace":      o.trace,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env["commit"] = s.Value
			case "vcs.modified":
				env["dirty"] = s.Value == "true"
			}
		}
	}
	return env
}

// heapCheckpoint collects garbage and records the live heap: the bytes
// still reachable, so the figure is the state the run retains (tables,
// memo, schedulers, simulated clusters) and does not depend on when
// collections happen to fall. Runs call it after set-up and after each
// phase; the largest value up to the end of the fixed work (the nominal
// phase, or simulate's batch) is peak_heap_mib.
func (r *report) heapCheckpoint() {
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	if mib := float64(sample[0].Value.Uint64()) / (1 << 20); mib > r.peakHeap {
		r.peakHeap = mib
	}
}

var workloads = map[string]func(*report) error{
	"fastpath":  func(r *report) error { return runServing(r, fastpath, r.o.seconds) },
	"exact-mix": func(r *report) error { return runServing(r, exactMix, r.o.seconds) },
	"simulate":  runSimulate,
}

func main() {
	os.Exit(run())
}

func run() int {
	var o opts
	var trace int
	var calibrate bool
	flag.StringVar(&o.workload, "workload", "", "workload to run: fastpath, exact-mix or simulate")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 20, "measurement length in seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.BoolVar(&calibrate, "calibrate-mix", false, "measure each exact-mix route's server time and print the route weights it derives, instead of a run")
	flag.Parse()
	if calibrate {
		costs, err := calibrateMix(o.seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		enc := json.NewEncoder(os.Stdout)
		for _, c := range costs {
			enc.Encode(c)
		}
		return 0
	}
	fn, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (trace != 0 && trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", names)
		return 2
	}
	o.trace = trace == 1
	runtime.GOMAXPROCS(runtime.NumCPU())
	o.procs = runtime.GOMAXPROCS(0)
	o.spans = fmt.Sprintf(".bench_build/spans/%s-seed%d.jsonl", o.workload, o.seed)

	rep := newReport(o)
	err := fn(rep)
	if err == nil && o.trace {
		err = fillLayers(rep)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rep.heapCheckpoint()
	res, err := rep.result()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, f := range rep.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	rep.info["peak_heap_mib"] = rep.peakHeap
	side, err := json.Marshal(map[string]any{"env": environment(o), "phases": rep.phases, "info": rep.info})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: rendering the run's side line:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: rendering the result:", err)
		return 1
	}
	fmt.Println(string(side))
	fmt.Println(string(line))
	if rep.failed > 0 {
		return 1
	}
	return 0
}
