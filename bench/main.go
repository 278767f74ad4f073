// Command bench is the repository's one benchmark: five workloads (three
// synopsis builds, two serve-tier traffic mixes), each set up from a
// seed, measured for a fixed time, and checked for correct output. See
// README.md in this directory and BENCHMARK.json at the repository root.
//
//	bash bench/run.sh -workload serve-hot -seed 7            end-to-end metrics
//	bash bench/run.sh -workload serve-hot -trace 1           per-layer metrics and the span table
//	bash bench/run.sh -json a.jsonl                          all workloads, results appended to a file
//	bash bench/run.sh -compare a.jsonl b.jsonl               two sets of runs against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"dwmaxerr/internal/obs"
)

func main() {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	workload := fs.String("workload", "", "workload to run; empty runs all of "+fmt.Sprint(workloadNames()))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", defaultSeconds, "measured time of one run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass")
	traceOut := fs.String("trace-out", "", "with -trace 1, write the spans as a Chrome trace to this file")
	jsonOut := fs.String("json", "", "append one JSON line per run to this file, for -compare")
	quick := fs.Bool("quick", false, "toy sizes: exercises the harness, measures nothing")
	compare := fs.Bool("compare", false, "compare two -json files (arguments) against BENCHMARK.json's bounds")
	fs.Parse(os.Args[1:])

	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two files")
			os.Exit(2)
		}
		os.Exit(compareFiles(os.Stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1)))
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) {
		fs.Usage()
		os.Exit(2)
	}
	names := workloadNames()
	if *workload != "" {
		names = []string{*workload}
	}
	opt := options{
		seed: *seed, dur: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, traceOut: *traceOut, quick: *quick,
	}
	code := 0
	for _, name := range names {
		opt.workload = name
		res, err := run(opt, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if *jsonOut != "" {
			if err := appendJSON(*jsonOut, res); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
		}
		if !res.Correct {
			code = 1
		}
	}
	os.Exit(code)
}

type options struct {
	workload string
	seed     int64
	dur      time.Duration
	trace    bool
	traceOut string
	quick    bool
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one line of a -json file: the result with what produced it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Env      env    `json:"env"`
	result
}

type env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func readEnv() env {
	e := env{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown"}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

// run sets one workload up, measures it, prints every metric by name with
// its unit and, as the last line, the result object.
func run(opt options, out io.Writer) (*record, error) {
	// Everything the run writes goes under .bench_build of the directory
	// it was started in, and is removed when it ends.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if dir, err = filepath.Abs(dir); err != nil {
		return nil, err
	}

	var rec *recorder
	defs := endToEnd
	if opt.trace {
		rec = newRecorder(opt.workload)
		defs = perLayer
	}
	t := &tally{}
	metrics, err := measure(opt, dir, rec, t)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", opt.workload, err)
	}

	r := &record{Workload: opt.workload, Seed: opt.seed, Trace: opt.trace, Env: readEnv()}
	r.Attempted, r.Failed = t.attempted, t.failed
	r.Correct = t.failed == 0 && t.attempted > 0
	r.Metrics = map[string]metricValue{}
	fmt.Fprintf(out, "== %s  seed %d  %v  trace %v  nproc %d  GOMAXPROCS %d  %s  commit %s\n",
		opt.workload, opt.seed, opt.dur, opt.trace, r.Env.NProc, r.Env.GOMAXPROCS, r.Env.Go, r.Env.Commit)
	for _, d := range defs {
		r.Metrics[d.name] = metricValue{metrics[d.name], d.unit}
		fmt.Fprintf(out, "%-34s %16.6g %s\n", d.name, metrics[d.name], d.unit)
	}
	for _, miss := range t.misses {
		fmt.Fprintln(out, "MISS:", miss)
	}
	if opt.trace {
		spans := rec.finish()
		printLayerTable(out, spans)
		if opt.traceOut != "" {
			if err := writeTraceFile(opt.traceOut, rec, spans); err != nil {
				return nil, err
			}
		}
	}
	line, err := json.Marshal(r.result)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "%s\n", line)
	return r, nil
}

// measure finds the workload and runs its untraced or traced pass.
func measure(opt options, dir string, rec *recorder, t *tally) (map[string]float64, error) {
	for _, spec := range buildSpecs(opt.quick) {
		if spec.name != opt.workload {
			continue
		}
		if opt.trace {
			return traceBuild(spec, opt.seed, opt.dur, dir, rec, t)
		}
		return runBuild(spec, opt.seed, opt.dur, dir, t)
	}
	for _, spec := range serveSpecs(opt.quick) {
		if spec.name != opt.workload {
			continue
		}
		if opt.trace {
			return traceServe(spec, opt.seed, opt.dur, dir, rec, t)
		}
		return runServe(spec, opt.seed, opt.dur, dir, t)
	}
	return nil, fmt.Errorf("unknown workload (have %v)", workloadNames())
}

// setUpRepeatedly sets a workload up setupRepeats times, closing all but
// the last environment, and returns that one with the median set-up time
// in seconds.
func setUpRepeatedly[E interface{ close() }](setup func() (E, error)) (env E, seconds float64, err error) {
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			env.close()
		}
		start := time.Now()
		if env, err = setup(); err != nil {
			return env, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return env, median(times), nil
}

func writeTraceFile(path string, rec *recorder, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.writeChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func appendJSON(path string, r *record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tally counts the operations and checks of a run, and how many missed.
// It is shared by the load generator's senders.
type tally struct {
	mu        sync.Mutex
	attempted int      // guarded by mu
	failed    int      // guarded by mu
	misses    []string // guarded by mu — the first few, for the report
}

func (t *tally) pass() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	t.failed++
	if len(t.misses) < 10 {
		t.misses = append(t.misses, fmt.Sprintf(format, args...))
	}
}

func (t *tally) check(ok bool, format string, args ...any) {
	if ok {
		t.pass()
	} else {
		t.fail(format, args...)
	}
}

// tracked are the program's own counters (and histogram sums) the traced
// pass reads before and after a phase; they are process-wide, so a delta
// is what the phase did.
var tracked = []string{
	"dist_greedy_runs", "dist_greedy_candidates", "dist_probes_total",
	"mr_wire_bytes_sent", "mr_sort_radix", "mr_sort_comparison",
	"mr_arena_block_gets", "mr_arena_block_allocs", "mr_speculative_attempts",
	"serve_shard_cache_hits", "serve_shard_cache_misses", "serve_shard_cache_evictions",
	"serve_shard_stray_fills", "serve_failover_total", "serve_forward_errors",
	"serve_shard_shed_total", "serve_shard_degraded_total", "serve_shard_not_owned",
}

var trackedSums = []string{"dist_layer_rows", "dist_layer_row_bytes"}

func counter(name string) int64 { return obs.Default.Counter(name).Value() }

func snapshotCounters() map[string]int64 {
	snap := map[string]int64{}
	for _, name := range tracked {
		snap[name] = counter(name)
	}
	for _, name := range trackedSums {
		snap[name] = obs.Default.Histogram(name).Sum()
	}
	return snap
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// memMetrics fills the rt.* metrics from the allocator's counters around
// a phase of ops operations. Generator and program share the process, so
// the generator's own allocations are in these numbers too.
func memMetrics(m map[string]float64, before, after runtime.MemStats, ops float64, phase time.Duration) {
	m["rt.alloc_kb_per_op"] = ratio(float64(after.TotalAlloc-before.TotalAlloc)/1e3, ops)
	m["rt.mallocs_per_op"] = ratio(float64(after.Mallocs-before.Mallocs), ops)
	m["rt.gc_pause_ms_per_s"] = ratio(float64(after.PauseTotalNs-before.PauseTotalNs)/1e6, phase.Seconds())
	m["rt.peak_heap_mb"] = float64(after.HeapSys) / 1e6
}
