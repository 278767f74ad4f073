package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"dwmaxerr"
	"dwmaxerr/internal/dataset"
	"dwmaxerr/internal/dist"
	"dwmaxerr/internal/mr"
	"dwmaxerr/internal/obs"
)

// tcpWorkers is the size of the loopback cluster: one worker per core of
// the two-core machine the workloads are sized for.
const tcpWorkers = 2

// generate makes a workload's input from the seed. The generators live
// here, not in the program, so a change to internal/dataset cannot move
// the benchmark's inputs.
func generate(gen string, n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float64, n)
	switch gen {
	case "uniform":
		for i := range data {
			data[i] = rng.Float64() * 1000
		}
	case "nyct":
		// Trip-time-like: a third short trips, a log-normal body, a hard
		// cap — the skewed integral data of the paper's NYCT set.
		for i := range data {
			v := math.Exp(rng.NormFloat64()*0.9 + 6.0)
			if rng.Float64() < 0.35 {
				v = float64(rng.Intn(60))
			}
			data[i] = math.Trunc(math.Min(v, 10800))
		}
	default:
		panic("bench: unknown generator " + gen)
	}
	return data
}

// built is one build's outcome in the shape both engines share.
type built struct {
	syn    *dwmaxerr.Synopsis
	maxErr float64
	jobs   []mr.Metrics
	wall   time.Duration
}

func (b *built) shuffleBytes() (n int64) {
	for _, j := range b.jobs {
		n += j.ShuffleBytes
	}
	return n
}

func (b *built) shuffleRecords() (n int64) {
	for _, j := range b.jobs {
		n += j.ShuffleRecords
	}
	return n
}

// buildEnv is a build workload ready to run: its input in memory (and on
// disk for the cluster), its engine started, one warm-up build done.
type buildEnv struct {
	spec   buildSpec
	data   []float64
	budget int
	rec    *recorder

	// Cluster workload only.
	path    string
	coord   *mr.Coordinator
	stop    chan struct{}
	workers sync.WaitGroup
	ref     *dwmaxerr.Synopsis // in-process Conventional, the expected answer

	first *built // the warm-up build
}

// setupBuild generates the input, publishes it, starts the engine and
// runs the warm-up build. With a recorder, every step is a span and the
// program's own tracing is switched on.
func setupBuild(spec buildSpec, seed int64, dir string, rec *recorder, parent int) (*buildEnv, error) {
	e := &buildEnv{spec: spec, rec: rec}
	n := 1 << spec.logN
	e.budget = n / spec.budgetDiv

	id := rec.begin("generate", parent)
	e.data = generate(spec.gen, n, seed)
	rec.end(id)

	if spec.algo == conCluster {
		id = rec.begin("publish", parent)
		e.path = filepath.Join(dir, fmt.Sprintf("%s-%d.bin", spec.name, seed))
		err := dataset.SaveBinary(e.path, e.data)
		rec.end(id)
		if err != nil {
			return nil, err
		}
		id = rec.begin("cluster_start", parent)
		err = e.startCluster()
		rec.end(id)
		if err != nil {
			e.close()
			return nil, err
		}
		id = rec.begin("reference", parent)
		ref, err := dwmaxerr.Build(e.data, dwmaxerr.Conventional, dwmaxerr.Options{Budget: e.budget})
		rec.end(id)
		if err != nil {
			e.close()
			return nil, err
		}
		e.ref = ref.Synopsis
	}

	id = rec.begin("warmup", parent)
	first, err := e.build(id)
	rec.end(id)
	if err != nil {
		e.close()
		return nil, fmt.Errorf("warm-up build: %w", err)
	}
	e.first = first
	return e, nil
}

func (e *buildEnv) startCluster() error {
	coord, err := mr.NewCoordinator("127.0.0.1:0")
	if err != nil {
		return err
	}
	// The coordinator's trace hook must be set before its first Run.
	coord.Options.Trace = e.rec.programSpan("coordinator")
	e.coord = coord
	e.stop = make(chan struct{})
	for w := 0; w < tcpWorkers; w++ {
		e.workers.Add(1)
		go func(w int) {
			defer e.workers.Done()
			// A worker's exit status carries nothing the builds do not
			// already report: a lost worker fails or retries its tasks.
			_ = mr.Serve(coord.Addr(), fmt.Sprintf("w%d", w), e.stop)
		}(w)
	}
	return coord.WaitForWorkers(tcpWorkers, 10*time.Second)
}

// build runs the workload's one operation and times it.
func (e *buildEnv) build(parent int) (*built, error) {
	id := e.rec.begin("build", parent)
	defer e.rec.end(id)
	start := time.Now()
	if e.spec.algo == conCluster {
		rep, err := dist.CONCluster(e.coord, e.path, e.budget, 1<<e.spec.logSub)
		if err != nil {
			return nil, err
		}
		return &built{syn: rep.Synopsis, maxErr: rep.MaxErr, jobs: rep.Jobs, wall: time.Since(start)}, nil
	}
	res, err := dwmaxerr.Build(e.data, dwmaxerr.Algorithm(e.spec.algo), dwmaxerr.Options{
		Budget:        e.budget,
		SubtreeLeaves: 1 << e.spec.logSub,
		Delta:         e.spec.delta,
		Reducers:      e.spec.reducers,
		Engine:        &mr.Local{}, // GOMAXPROCS task slots
		Trace:         e.rec.programSpan("build"),
	})
	if err != nil {
		return nil, err
	}
	return &built{syn: res.Synopsis, maxErr: res.MaxErr, jobs: res.Jobs, wall: time.Since(start)}, nil
}

// verify is the build workloads' correctness gate; it returns the
// independently evaluated maximum absolute error.
func (e *buildEnv) verify(b *built, t *tally) float64 {
	id := e.rec.begin("verify", -1)
	defer e.rec.end(id)
	t.check(b.syn.Size() <= e.budget, "synopsis has %d terms, budget %d", b.syn.Size(), e.budget)
	errs, err := dwmaxerr.Evaluate(b.syn, e.data, 0)
	t.check(err == nil, "evaluate: %v", err)
	if e.ref != nil {
		t.check(sameTerms(b.syn, e.ref), "cluster synopsis differs from in-process Conventional")
	} else {
		t.check(closeTo(b.maxErr, errs.MaxAbs), "reported MaxErr %g, evaluated %g", b.maxErr, errs.MaxAbs)
	}
	t.check(b.shuffleBytes() == e.first.shuffleBytes() && b.shuffleRecords() == e.first.shuffleRecords(),
		"shuffle of this build (%d B, %d records) differs from the first (%d B, %d records)",
		b.shuffleBytes(), b.shuffleRecords(), e.first.shuffleBytes(), e.first.shuffleRecords())
	return errs.MaxAbs
}

func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

func sameTerms(a, b *dwmaxerr.Synopsis) bool {
	if a.N != b.N || len(a.Terms) != len(b.Terms) {
		return false
	}
	sorted := func(s *dwmaxerr.Synopsis) []dwmaxerr.Coefficient {
		t := append([]dwmaxerr.Coefficient(nil), s.Terms...)
		sort.Slice(t, func(i, j int) bool { return t[i].Index < t[j].Index })
		return t
	}
	ta, tb := sorted(a), sorted(b)
	for i := range ta {
		if ta[i] != tb[i] {
			return false
		}
	}
	return true
}

func (e *buildEnv) close() {
	if e.coord != nil {
		close(e.stop)
		e.coord.Close()
		e.workers.Wait()
		e.coord = nil
	}
	if e.path != "" {
		os.Remove(e.path)
	}
}

// timedBuilds runs builds back to back until dur has passed, at least
// minBuilds of them, verifying each outside its timed part.
func (e *buildEnv) timedBuilds(dur time.Duration, minBuilds int, t *tally) (builds []*built, maxAbs float64, err error) {
	phase := e.rec.begin("timed_builds", -1)
	defer e.rec.end(phase)
	start := time.Now()
	for len(builds) < minBuilds || time.Since(start) < dur {
		b, err := e.build(phase)
		if err != nil {
			t.fail("build: %v", err)
			return builds, maxAbs, err
		}
		builds = append(builds, b)
		maxAbs = math.Max(maxAbs, e.verify(b, t))
	}
	return builds, maxAbs, nil
}

func wallSeconds(builds []*built) []float64 {
	out := make([]float64, len(builds))
	for i, b := range builds {
		out[i] = b.wall.Seconds()
	}
	return out
}

// runBuild is the untraced run of a build workload: end-to-end metrics.
func runBuild(spec buildSpec, seed int64, dur time.Duration, dir string, t *tally) (map[string]float64, error) {
	env, setupSeconds, err := setUpRepeatedly(func() (*buildEnv, error) {
		return setupBuild(spec, seed, dir, nil, -1)
	})
	if err != nil {
		return nil, err
	}
	defer env.close()

	builds, maxAbs, err := env.timedBuilds(dur, 3, t)
	if err != nil {
		return nil, err
	}
	walls := wallSeconds(builds)
	var total float64
	for _, w := range walls {
		total += w
	}
	sort.Float64s(walls)
	return map[string]float64{
		"setup_s":      setupSeconds,
		"op_p50_ms":    median(walls) * 1e3,
		"op_tail_ms":   percentile(walls, 90) * 1e3,
		"ops_per_s":    float64(len(walls)) / total,
		"bytes_per_op": float64(builds[0].shuffleBytes()),
		"max_abs_err":  maxAbs,
	}, nil
}

// traceBuild is the traced run: a short untraced pass for the counters
// and the overhead baseline, a traced pass for the spans, then the
// kernel probes on the workload's own input.
func traceBuild(spec buildSpec, seed int64, dur time.Duration, dir string, rec *recorder, t *tally) (map[string]float64, error) {
	m := map[string]float64{}

	env, err := setupBuild(spec, seed, dir, nil, -1)
	if err != nil {
		return nil, err
	}
	before, mem0 := snapshotCounters(), readMem()
	start := time.Now()
	plain, _, err := env.timedBuilds(dur/4, 2, t)
	phase := time.Since(start)
	after, mem1 := snapshotCounters(), readMem()
	env.close()
	if err != nil {
		return nil, err
	}
	n := float64(len(plain))
	perBuild := func(name string) float64 { return float64(after[name]-before[name]) / n }
	last := plain[len(plain)-1]

	m["dist.greedy_runs"] = perBuild("dist_greedy_runs")
	m["dist.greedy_candidates"] = perBuild("dist_greedy_candidates")
	m["dist.greedy_runs_per_candidate"] = ratio(m["dist.greedy_runs"], m["dist.greedy_candidates"])
	m["dist.probes"] = perBuild("dist_probes_total")
	m["dist.jobs"] = float64(len(last.jobs))
	m["dist.layer_rows"] = perBuild("dist_layer_rows")
	m["dist.layer_row_bytes"] = perBuild("dist_layer_row_bytes")
	if spec.delta > 0 {
		// Equation 6: every row crossing a layer boundary carries the
		// O(ε/δ) incoming-value window, 4 bytes an entry, here at the
		// final ε — an upper bound to read beside dist.layer_row_bytes.
		m["dist.eq6_pred_bytes"] = m["dist.layer_rows"] * (2*last.maxErr/spec.delta + 1) * 4
	}
	var jobWall, mapTask, reduceTask time.Duration
	var retries int
	for _, j := range last.jobs {
		jobWall += j.WallTime
		retries += j.MapRetries + j.ReduceRetries
		for _, s := range j.MapStats {
			mapTask += s.Duration
		}
		for _, s := range j.ReduceStats {
			reduceTask += s.Duration
		}
	}
	m["dist.driver_s"] = (last.wall - jobWall).Seconds()
	m["mr.shuffle_records"] = float64(last.shuffleRecords())
	m["mr.map_task_s"] = mapTask.Seconds()
	m["mr.reduce_task_s"] = reduceTask.Seconds()
	m["mr.job_wall_s"] = jobWall.Seconds()
	m["mr.wire_bytes_sent"] = perBuild("mr_wire_bytes_sent")
	m["mr.wire_bytes_per_shuffle_byte"] = ratio(m["mr.wire_bytes_sent"], float64(last.shuffleBytes()))
	m["mr.sort_radix_frac"] = ratio(perBuild("mr_sort_radix"), perBuild("mr_sort_radix")+perBuild("mr_sort_comparison"))
	m["mr.arena_alloc_frac"] = ratio(perBuild("mr_arena_block_allocs"), perBuild("mr_arena_block_gets"))
	m["mr.task_retries"] = float64(retries)
	m["mr.speculative_attempts"] = perBuild("mr_speculative_attempts")
	memMetrics(m, mem0, mem1, n, phase)

	setup := rec.begin("setup", -1)
	env, err = setupBuild(spec, seed, dir, rec, setup)
	rec.end(setup)
	if err != nil {
		return nil, err
	}
	defer env.close()
	traced, _, err := env.timedBuilds(dur/4, 2, t)
	if err != nil {
		return nil, err
	}
	m["trace.overhead_frac"] = ratio(median(wallSeconds(traced)), median(wallSeconds(plain)))
	m["mr.job_overhead_ms"] = jobOverheadMS(rec.programRoot)

	return m, buildProbes(m, env, last, rec)
}

// jobOverheadMS walks the program's span tree: per job, the span's own
// time less its phases' (which run one after another) — scheduling,
// set-up and result assembly that belong to no phase.
func jobOverheadMS(root *obs.Span) float64 {
	var jobs int
	var overhead time.Duration
	root.Walk(func(s *obs.Span) {
		if !strings.HasPrefix(s.Name(), "job:") {
			return
		}
		jobs++
		overhead += s.Duration()
		for _, phase := range s.Children() {
			overhead -= phase.Duration()
		}
	})
	if jobs == 0 {
		return 0
	}
	return float64(overhead) / float64(time.Millisecond) / float64(jobs)
}
