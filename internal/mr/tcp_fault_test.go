package mr

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dwmaxerr/internal/obs"
)

// Fault-injection coverage for the cluster engine: worker crashes mid-map
// and mid-reduce, heartbeat-detected silence, malformed map output, wire
// counter parity with the Local engine, speculation, and graceful
// shutdown.

// faultJobParams parameterizes the counting test job.
type faultJobParams struct {
	Texts       []string
	MapDelay    time.Duration
	ReduceDelay time.Duration
}

var combinerAttempts atomic.Int64 // max attempt number any combiner observed

func init() {
	// Word count with user counters on both sides of the shuffle.
	RegisterJob("fault-count", func(params []byte) (*Job, error) {
		var p faultJobParams
		if err := GobDecode(params, &p); err != nil {
			return nil, err
		}
		job := wordCountJob(p.Texts, 2)
		inner := job.Map
		job.Map = func(ctx TaskContext, split Split, emit Emit) error {
			time.Sleep(p.MapDelay)
			ctx.Counters.Add("count.words", int64(len(strings.Fields(string(split.Payload)))))
			return inner(ctx, split, emit)
		}
		innerRed := job.Reduce
		job.Reduce = func(ctx TaskContext, key []byte, values [][]byte, emit Emit) error {
			time.Sleep(p.ReduceDelay)
			ctx.Counters.Add("count.groups", 1)
			return innerRed(ctx, key, values, emit)
		}
		return job, nil
	})
	// Word count whose combiner records the attempt number it observes.
	RegisterJob("fault-combiner", func(params []byte) (*Job, error) {
		var texts []string
		if err := GobDecode(params, &texts); err != nil {
			return nil, err
		}
		job := wordCountJob(texts, 1)
		job.Combine = func(ctx TaskContext, key []byte, values [][]byte, emit Emit) error {
			if a := int64(ctx.Attempt); a > combinerAttempts.Load() {
				combinerAttempts.Store(a)
			}
			ctx.Counters.Add("combine.groups", 1)
			return job.Reduce(ctx, key, values, emit)
		}
		return job, nil
	})
	// Word count whose first attempt of map task 0 straggles.
	RegisterJob("fault-straggler", func(params []byte) (*Job, error) {
		var texts []string
		if err := GobDecode(params, &texts); err != nil {
			return nil, err
		}
		job := wordCountJob(texts, 1)
		inner := job.Map
		job.Map = func(ctx TaskContext, split Split, emit Emit) error {
			if ctx.TaskID == 0 && ctx.Attempt == 1 {
				time.Sleep(250 * time.Millisecond)
			}
			return inner(ctx, split, emit)
		}
		return job, nil
	})
}

// localRunOf executes the same registered job through the Local engine,
// the reference for counter and output parity.
func localRunOf(t *testing.T, jobName string, params []byte) *Result {
	t.Helper()
	job, err := LookupJob(jobName, params)
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&Local{}).Run(job)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestClusterCountersMatchLocal(t *testing.T) {
	c := startCluster(t, 2)
	params := MustGobEncode(faultJobParams{Texts: []string{"a b a", "c c", "a d e"}})
	clusterRes, err := runRegistered(c, "fault-count", params)
	if err != nil {
		t.Fatal(err)
	}
	localRes := localRunOf(t, "fault-count", params)
	if !reflect.DeepEqual(countsOf(clusterRes), countsOf(localRes)) {
		t.Fatalf("cluster %v != local %v", countsOf(clusterRes), countsOf(localRes))
	}
	if clusterRes.Metrics.UserCounters == nil {
		t.Fatal("cluster run reported no user counters")
	}
	if !reflect.DeepEqual(clusterRes.Metrics.UserCounters, localRes.Metrics.UserCounters) {
		t.Fatalf("user counters: cluster %v != local %v",
			clusterRes.Metrics.UserCounters, localRes.Metrics.UserCounters)
	}
	for _, st := range append(clusterRes.Metrics.MapStats, clusterRes.Metrics.ReduceStats...) {
		if st.Attempt < 1 {
			t.Fatalf("task stat with unset attempt: %+v", st)
		}
	}
}

func TestClusterWorkerKilledMidMapAndMidReduce(t *testing.T) {
	c, err := NewCoordinator("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })

	// One worker crashes on its first map task, one on its first reduce
	// task, one stays healthy.
	var mapCrashed, reduceCrashed atomic.Bool
	go ServeWorker(c.Addr(), "doomed-map", stop, WorkerOptions{
		TaskHook: func(kind string, taskID, attempt int) error {
			if kind == "map" && mapCrashed.CompareAndSwap(false, true) {
				return errors.New("injected crash mid-map")
			}
			return nil
		},
	})
	go ServeWorker(c.Addr(), "doomed-reduce", stop, WorkerOptions{
		TaskHook: func(kind string, taskID, attempt int) error {
			if kind == "reduce" && reduceCrashed.CompareAndSwap(false, true) {
				return errors.New("injected crash mid-reduce")
			}
			return nil
		},
	})
	go Serve(c.Addr(), "healthy", stop)
	if err := c.WaitForWorkers(3, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	params := MustGobEncode(faultJobParams{
		Texts:    []string{"a a", "b c", "d d d", "e"},
		MapDelay: 10 * time.Millisecond,
	})
	res, err := runRegistered(c, "fault-count", params)
	if err != nil {
		t.Fatal(err)
	}
	if !mapCrashed.Load() || !reduceCrashed.Load() {
		t.Fatalf("fault injection did not fire: map=%v reduce=%v", mapCrashed.Load(), reduceCrashed.Load())
	}
	local := localRunOf(t, "fault-count", params)
	if !reflect.DeepEqual(countsOf(res), countsOf(local)) {
		t.Fatalf("output diverged under failures: cluster %v local %v", countsOf(res), countsOf(local))
	}
	if res.Metrics.MapRetries == 0 {
		t.Fatal("map task was reassigned but MapRetries == 0")
	}
	if res.Metrics.ReduceRetries == 0 {
		t.Fatal("reduce task was reassigned but ReduceRetries == 0")
	}
	if !reflect.DeepEqual(res.Metrics.UserCounters, local.Metrics.UserCounters) {
		t.Fatalf("counters diverged under failures: cluster %v local %v",
			res.Metrics.UserCounters, local.Metrics.UserCounters)
	}
}

// TestClusterCrashMidMapCounterDeltas pins the registry semantics of
// failure recovery: one injected crash produces exactly one
// mr_task_retries increment, no duplicate commits, no speculative
// attempts, and a span tree covering every task attempt. Deltas are
// measured around the run because obs.Default is process-wide.
func TestClusterCrashMidMapCounterDeltas(t *testing.T) {
	retries0 := obsTaskRetries.Value()
	dups0 := obsTaskCommitDups.Value()
	spec0 := obsSpeculativeAttempts.Value()
	launched0 := obsTasksLaunched.Value()

	c, err := NewCoordinator("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	var crashed atomic.Bool
	go ServeWorker(c.Addr(), "doomed", stop, WorkerOptions{
		TaskHook: func(kind string, taskID, attempt int) error {
			if kind == "map" && crashed.CompareAndSwap(false, true) {
				return errors.New("injected crash mid-map")
			}
			return nil
		},
	})
	go Serve(c.Addr(), "healthy", stop)
	if err := c.WaitForWorkers(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	tracer := obs.NewTracer()
	root := tracer.Start("test-job")
	params := MustGobEncode(faultJobParams{
		Texts:    []string{"a a", "b c", "d d d"},
		MapDelay: 10 * time.Millisecond,
	})
	job, err := LookupJob("fault-count", params)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunWith(job, JobOptions{Trace: root})
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if !crashed.Load() {
		t.Fatal("fault injection did not fire")
	}
	// Deltas must be read before the Local parity run below, which also
	// feeds the same process-wide registry.
	launchedDelta := obsTasksLaunched.Value() - launched0
	local := localRunOf(t, "fault-count", params)
	if !reflect.DeepEqual(countsOf(res), countsOf(local)) {
		t.Fatalf("output diverged under failure: cluster %v local %v", countsOf(res), countsOf(local))
	}

	if d := obsTaskRetries.Value() - retries0; d != 1 {
		t.Fatalf("mr_task_retries delta = %d, want exactly 1", d)
	}
	if d := obsTaskCommitDups.Value() - dups0; d != 0 {
		t.Fatalf("mr_task_commit_dups delta = %d, want 0", d)
	}
	if d := obsSpeculativeAttempts.Value() - spec0; d != 0 {
		t.Fatalf("mr_speculative_attempts delta = %d, want 0", d)
	}
	// 3 maps + 2 reduces + the one retry.
	attempts := len(res.Metrics.MapStats) + len(res.Metrics.ReduceStats)
	if launchedDelta != int64(attempts) || attempts != 6 {
		t.Fatalf("mr_tasks_launched delta = %d, task stats = %d, want both 6", launchedDelta, attempts)
	}

	// The span tree records one attempt span per task stat under the job.
	spans := 0
	root.Walk(func(s *obs.Span) {
		if s.Name() == "map" || s.Name() == "reduce" {
			spans++
		}
	})
	if spans != attempts {
		t.Fatalf("trace has %d task-attempt spans, metrics report %d attempts", spans, attempts)
	}
}

func TestClusterHeartbeatDetectsSilentWorker(t *testing.T) {
	c, err := NewCoordinator("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	// Short heartbeat window, long task deadline: only the heartbeat
	// monitor can rescue the task held by the frozen worker.
	c.HeartbeatTimeout = 300 * time.Millisecond
	c.TaskTimeout = 30 * time.Second

	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	frozen := make(chan struct{})
	t.Cleanup(func() { close(frozen) })
	go ServeWorker(c.Addr(), "frozen", stop, WorkerOptions{
		DisableHeartbeat: true,
		TaskHook: func(kind string, taskID, attempt int) error {
			<-frozen // hold the task forever without replying
			return errors.New("unfrozen")
		},
	})
	go Serve(c.Addr(), "healthy", stop)
	if err := c.WaitForWorkers(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	params := MustGobEncode(faultJobParams{Texts: []string{"x x", "y z"}})
	start := time.Now()
	res, err := runRegistered(c, "fault-count", params)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("heartbeat monitor did not rescue the task: run took %v", elapsed)
	}
	want := map[string]uint64{"x": 2, "y": 1, "z": 1}
	if got := countsOf(res); !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	if res.Metrics.MapRetries == 0 {
		t.Fatal("frozen worker's task was not retried")
	}
}

// shortPartsWorker is a protocol-level fake: it executes tasks correctly
// except that its first map reply drops all but one shuffle partition —
// exactly the malformed output the seed engine silently truncated.
func shortPartsWorker(t *testing.T, addr string, stop <-chan struct{}) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Error(err)
		return
	}
	go func() {
		<-stop
		conn.Close()
	}()
	fw := newFrameWriter(conn)
	fr := newFrameReader(conn)
	if _, err := conn.Write(appendPreamble(nil)); err != nil {
		return
	}
	if err := fw.write(frameHello, MustGobEncode(&wireHello{WorkerName: "short-parts"})); err != nil {
		return
	}
	truncated := false
	for {
		typ, payload, err := fr.read()
		if err != nil || typ != frameTask {
			return
		}
		task, err := decodeWireTask(payload)
		if err != nil {
			t.Error(err)
			return
		}
		if task.Kind == "shutdown" {
			return
		}
		reply, _ := executeTask(&task)
		if !truncated && task.Kind == "map" && len(reply.Parts) > 1 {
			reply.Parts = reply.Parts[:1]
			truncated = true
		}
		err = fw.write(frameReply, appendWireReply(nil, &reply))
		reply.recycle()
		if err != nil {
			return
		}
	}
}

func TestClusterShortMapOutputIsRetried(t *testing.T) {
	c, err := NewCoordinator("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	go shortPartsWorker(t, c.Addr(), stop)
	if err := c.WaitForWorkers(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	params := MustGobEncode(faultJobParams{Texts: []string{"a b c d e f g h"}})
	res, err := runRegistered(c, "fault-count", params)
	if err != nil {
		t.Fatal(err)
	}
	local := localRunOf(t, "fault-count", params)
	if !reflect.DeepEqual(countsOf(res), countsOf(local)) {
		t.Fatalf("short map output leaked into the result: cluster %v local %v",
			countsOf(res), countsOf(local))
	}
	failed := false
	for _, st := range res.Metrics.MapStats {
		if st.Failed && st.Attempt == 1 {
			failed = true
		}
	}
	if !failed {
		t.Fatal("the truncated first attempt was not recorded as failed")
	}
	if res.Metrics.MapRetries == 0 {
		t.Fatal("truncated map output was not retried")
	}
}

func TestClusterCombinerSeesAttempt(t *testing.T) {
	combinerAttempts.Store(0)
	c := startCluster(t, 1)
	params := MustGobEncode([]string{"m m n", "n n"})
	res, err := runRegistered(c, "fault-combiner", params)
	if err != nil {
		t.Fatal(err)
	}
	if got := combinerAttempts.Load(); got < 1 {
		t.Fatalf("combiner observed attempt %d, want >= 1", got)
	}
	if res.Metrics.UserCounters["combine.groups"] == 0 {
		t.Fatal("combiner counters were not shipped back")
	}
}

func TestClusterSpeculativeBackupCommits(t *testing.T) {
	spec0 := obsSpeculativeAttempts.Value()
	c, err := NewCoordinator("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SpeculationAfter = 30 * time.Millisecond
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	for i := 0; i < 2; i++ {
		go Serve(c.Addr(), fmt.Sprintf("w%d", i), stop)
	}
	if err := c.WaitForWorkers(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	res, err := runRegistered(c, "fault-straggler", MustGobEncode([]string{"p p", "q"}))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{"p": 2, "q": 1}
	if got := countsOf(res); !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	attempts := 0
	for _, st := range res.Metrics.MapStats {
		if st.TaskID == 0 {
			attempts++
		}
	}
	if attempts != 2 {
		t.Fatalf("straggling map task recorded %d attempts, want 2 (primary + backup)", attempts)
	}
	if res.Metrics.MapRetries == 0 {
		t.Fatal("backup attempt committed but MapRetries == 0")
	}
	if d := obsSpeculativeAttempts.Value() - spec0; d < 1 {
		t.Fatalf("mr_speculative_attempts delta = %d, want >= 1", d)
	}
}

// TestClusterMetricsAggregationUnderConcurrentCompletions pins the
// Metrics synchronization contract documented on the type: replies from
// many overlapping map and reduce completions are folded into Metrics
// (including Makespan inputs, wire counters, and user counters) only on
// the Run goroutine, so reading every aggregate after Run returns is
// race-free. Run under -race this fails if any engine path ever writes
// Metrics from a task goroutine.
func TestClusterMetricsAggregationUnderConcurrentCompletions(t *testing.T) {
	c := startCluster(t, 4)
	texts := make([]string, 16)
	for i := range texts {
		texts[i] = fmt.Sprintf("w%d x y z", i)
	}
	params := MustGobEncode(faultJobParams{
		Texts:       texts,
		MapDelay:    time.Millisecond,
		ReduceDelay: time.Millisecond,
	})
	res, err := runRegistered(c, "fault-count", params)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if len(m.MapStats) != 16 || len(m.ReduceStats) == 0 {
		t.Fatalf("stats not fully merged: %d map, %d reduce", len(m.MapStats), len(m.ReduceStats))
	}
	if m.ShuffleRecords == 0 || m.ShuffleBytes == 0 {
		t.Fatalf("shuffle accounting not merged: %d records, %d bytes", m.ShuffleRecords, m.ShuffleBytes)
	}
	if m.UserCounters["count.words"] == 0 || m.UserCounters["count.groups"] == 0 {
		t.Fatalf("user counters not merged: %v", m.UserCounters)
	}
	if ms := m.Makespan(4, 1); ms <= 0 {
		t.Fatalf("Makespan(4, 1) = %v, want > 0", ms)
	}
	local := localRunOf(t, "fault-count", params)
	if !reflect.DeepEqual(countsOf(res), countsOf(local)) {
		t.Fatalf("cluster %v != local %v", countsOf(res), countsOf(local))
	}
}

func TestClusterGracefulShutdown(t *testing.T) {
	c, err := NewCoordinator("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Workers get no stop channel: only the coordinator's shutdown
	// broadcast can end them.
	exits := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			exits <- Serve(c.Addr(), fmt.Sprintf("w%d", i), nil)
		}(i)
	}
	if err := c.WaitForWorkers(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := runRegistered(c, "tcp-wordcount", MustGobEncode([]string{"a b", "c"})); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-exits:
			if err != nil {
				t.Fatalf("worker exited with %v, want graceful nil", err)
			}
		case <-time.After(3 * time.Second):
			t.Fatal("worker did not drain after shutdown broadcast")
		}
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := runRegistered(c, "tcp-wordcount", MustGobEncode([]string{"a"})); err == nil {
		t.Fatal("run succeeded on a closed coordinator")
	}
}

// TestClusterLivenessPollingDuringRun uses only seed-era API (Serve plus
// stop channels). Against the seed's worker pool — which nil'd out busy
// slots and flipped w.dead outside the coordinator lock — this exact test
// crashes under `go test -race` with a nil dereference in WaitForWorkers.
func TestClusterLivenessPollingDuringRun(t *testing.T) {
	c, err := NewCoordinator("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	stopA := make(chan struct{})
	stopB := make(chan struct{})
	t.Cleanup(func() { close(stopB) })
	go Serve(c.Addr(), "doomed", stopA)
	go Serve(c.Addr(), "ok1", stopB)
	go Serve(c.Addr(), "ok2", stopB)
	if err := c.WaitForWorkers(3, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	pollDone := make(chan struct{})
	go func() {
		defer close(pollDone)
		for i := 0; i < 200; i++ {
			c.WaitForWorkers(1, time.Millisecond)
			time.Sleep(time.Millisecond)
		}
	}()
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(stopA) // kill a worker mid-job
	}()
	params := MustGobEncode(faultJobParams{
		Texts:    []string{"a a", "b", "c c c", "d", "e e", "f", "g g", "h"},
		MapDelay: 5 * time.Millisecond,
	})
	res, err := runRegistered(c, "fault-count", params)
	if err != nil {
		t.Fatal(err)
	}
	local := localRunOf(t, "fault-count", params)
	if !reflect.DeepEqual(countsOf(res), countsOf(local)) {
		t.Fatalf("cluster %v != local %v", countsOf(res), countsOf(local))
	}
	<-pollDone
}

// TestClusterWorkerDeathIsRaceFree hammers concurrent task scheduling,
// worker death, and liveness polling. Against the seed's worker pool —
// where runTask wrote w.dead without holding the coordinator lock — this
// test fails under -race.
func TestClusterWorkerDeathIsRaceFree(t *testing.T) {
	c, err := NewCoordinator("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	for i := 0; i < 3; i++ {
		// The first two workers each crash on their first map task.
		var crashed atomic.Bool
		doomed := i < 2
		go ServeWorker(c.Addr(), fmt.Sprintf("w%d", i), stop, WorkerOptions{
			TaskHook: func(kind string, taskID, attempt int) error {
				if doomed && kind == "map" && crashed.CompareAndSwap(false, true) {
					return errors.New("chaos")
				}
				return nil
			},
		})
	}
	if err := c.WaitForWorkers(3, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// Poll liveness concurrently with the run — the seed read w.dead under
	// the lock here while writing it without the lock in runTask.
	pollDone := make(chan struct{})
	go func() {
		defer close(pollDone)
		for i := 0; i < 200; i++ {
			c.WaitForWorkers(1, time.Millisecond)
			time.Sleep(time.Millisecond)
		}
	}()
	params := MustGobEncode(faultJobParams{
		Texts:    []string{"a a", "b", "c c c", "d", "e e", "f", "g g", "h"},
		MapDelay: 5 * time.Millisecond,
	})
	res, err := runRegistered(c, "fault-count", params)
	if err != nil {
		t.Fatal(err)
	}
	local := localRunOf(t, "fault-count", params)
	if !reflect.DeepEqual(countsOf(res), countsOf(local)) {
		t.Fatalf("cluster %v != local %v", countsOf(res), countsOf(local))
	}
	<-pollDone
}
