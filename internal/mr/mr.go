// Package mr is a from-scratch MapReduce-style execution substrate that
// stands in for the Hadoop cluster of the paper's evaluation (Section 6).
// It provides the semantics the distributed thresholding algorithms need —
// input splits, map tasks, a sorting/partitioning shuffle, reduce tasks,
// combiners, configurable map/reduce slot counts, task retry with failure
// injection.
//
// There is one way to run a job (pipeline.go): one phase pipeline — map
// phase, shuffle, reduce phase, metrics — and one attempt loop — primary
// attempt, speculative backup, retries, first success commits — shared by
// every engine. An engine only supplies the executor behind them: somewhere
// to run an attempt.
//
//   - Local: a semaphore of in-process slots and a direct call of the task
//     body. It records per-task durations and shuffle volumes, and can report
//     the simulated makespan for any slot count, which is how the scalability
//     series of Figures 5c/5d (runtime vs. number of parallel tasks) are
//     regenerated on a single machine. It also carries the one alternate
//     shuffle, the external sort-spill-merge of spill.go.
//   - Coordinator: a fleet of workers, each one slot. TCP workers receive
//     tasks over a compact length-prefixed binary wire format (wire.go; gob
//     only for the per-connection hello) and rebuild the job from the
//     registry; shared-memory workers (localworker.go) receive the task
//     struct over a channel and run the driver's *Job by pointer. Workers
//     heartbeat the coordinator; a monitor declares silent workers dead
//     mid-task and the attempt loop reassigns their work; Close drains
//     workers with a shutdown broadcast.
//
// Both engines satisfy TracingEngine, so a driver holding an Engine runs the
// same *Job on either. Task callbacks run concurrently — across tasks, and
// across attempts of one task — and may share nothing mutable.
//
// Keys and values are byte slices; encode/decode helpers live in codec.go.
package mr

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"dwmaxerr/internal/obs"
)

// Emit receives one intermediate or output key/value pair. Engine emit
// implementations copy key and value before returning, so callers may
// reuse one scratch buffer across emits (see the Append* helpers in
// codec.go) instead of allocating per record.
type Emit func(key, value []byte) error

// TaskContext identifies a running task to map/reduce functions.
type TaskContext struct {
	TaskID  int // split index for maps, partition index for reduces
	Attempt int // 1-based attempt number
	// Counters receives user counter increments; only the committed
	// attempt's counters reach the job metrics.
	Counters *Counters
}

// MapFunc processes one input split.
type MapFunc func(ctx TaskContext, split Split, emit Emit) error

// ReduceFunc processes one key group. values preserves shuffle order
// (sorted by key; ties in arrival order). The values slice itself is only
// valid during the call — the engine reuses it for the next group — but
// the byte slices it holds stay valid for the task's lifetime.
type ReduceFunc func(ctx TaskContext, key []byte, values [][]byte, emit Emit) error

// Split is one unit of map input. Payload is opaque to the engine and
// crosses the wire verbatim; the dist jobs store a uvarint chunk index and
// leave what it indexes (file path, sub-tree size) to the job parameters.
type Split struct {
	ID      int
	Payload []byte
}

// Job describes one MapReduce execution.
type Job struct {
	Name     string
	Splits   []Split
	Map      MapFunc
	Reduce   ReduceFunc // nil: identity (map output passed through)
	Combine  ReduceFunc // optional map-side combiner
	Reducers int        // number of reduce partitions; 0 means 1
	// Partition routes a key to a reduce partition; nil uses FNV hashing.
	Partition func(key []byte, reducers int) int
	// Compare orders keys within a partition; nil uses bytes.Compare.
	Compare func(a, b []byte) int

	// regName and regParams name the job to workers in other processes:
	// the registry entry and parameters LookupJob built it from, which a
	// TCP worker feeds to the same factory. A Job assembled directly from
	// closures has neither, and runs only on executors that share the
	// driver's memory (Local, shared-memory workers).
	regName   string
	regParams []byte
}

func (j *Job) reducers() int {
	if j.Reducers <= 0 {
		return 1
	}
	return j.Reducers
}

func (j *Job) partition(key []byte) int {
	n := j.reducers()
	if j.Partition != nil {
		p := j.Partition(key, n)
		if p < 0 || p >= n {
			return 0
		}
		return p
	}
	h := fnv.New32a()
	h.Write(key)
	// Reduce in uint32 space: int(h.Sum32()) is negative for hashes above
	// MaxInt32 on 32-bit platforms, and a negative index would panic.
	return int(h.Sum32() % uint32(n))
}

func (j *Job) compare(a, b []byte) int {
	if j.Compare != nil {
		return j.Compare(a, b)
	}
	return bytes.Compare(a, b)
}

func (j *Job) validate() error {
	if j.Map == nil {
		return errors.New("mr: job has no map function")
	}
	if len(j.Splits) == 0 {
		return errors.New("mr: job has no input splits")
	}
	return nil
}

// Pair is one output record.
type Pair struct {
	Key, Value []byte
}

// TaskStat records one task attempt for metrics and makespan simulation.
type TaskStat struct {
	TaskID   int
	Attempt  int
	Duration time.Duration
	Failed   bool
}

// Metrics aggregates what one job execution did. ShuffleBytes counts the
// map-output key+value bytes crossing the shuffle — the quantity bounded by
// Equation 6 — and OutputBytes the reduce-output volume.
//
// Synchronization contract: task attempts complete concurrently, but no
// task goroutine writes a Metrics field. Each task's attempt loop hands its
// TaskStats and committed reply over a channel to runPhase, which collects
// them in one loop per phase on the Run goroutine; the pipeline folds them
// into Metrics between phases. Consequently Metrics — including Makespan,
// which walks MapStats and ReduceStats — is safe to read without locking
// once Run returns, and never safe to read while Run is in flight.
// tcp_fault_test.go pins this down under -race with concurrent reduce
// completions.
type Metrics struct {
	Job            string
	MapTasks       int
	ReduceTasks    int
	MapRetries     int
	ReduceRetries  int
	ShuffleRecords int64
	ShuffleBytes   int64
	OutputRecords  int64
	OutputBytes    int64
	SpilledBytes   int64
	// UserCounters aggregates the counters bumped by committed task
	// attempts (nil when none were used).
	UserCounters map[string]int64
	MapStats     []TaskStat
	ReduceStats  []TaskStat
	WallTime     time.Duration
}

// recordPhase files one finished phase: every attempt's stat, the task
// count, and the committed attempts beyond the first as retries.
func (m *Metrics) recordPhase(kind string, tasks int, stats []TaskStat) {
	retries := 0
	for _, st := range stats {
		if st.Attempt > 1 && !st.Failed {
			retries++
		}
	}
	if kind == "map" {
		m.MapStats, m.MapTasks, m.MapRetries = stats, tasks, retries
	} else {
		m.ReduceStats, m.ReduceTasks, m.ReduceRetries = stats, tasks, retries
	}
}

// Makespan simulates executing the recorded map tasks on mapSlots parallel
// slots and then the reduce tasks on reduceSlots slots (LPT list
// scheduling, mirroring Hadoop's slot model), returning the simulated
// completion time. It is how "runtime vs. number of parallel tasks" series
// are produced deterministically on one machine.
func (m *Metrics) Makespan(mapSlots, reduceSlots int) time.Duration {
	return schedule(m.MapStats, mapSlots) + schedule(m.ReduceStats, reduceSlots)
}

func schedule(stats []TaskStat, slots int) time.Duration {
	if slots < 1 {
		slots = 1
	}
	if len(stats) == 0 {
		return 0
	}
	// FIFO list scheduling in task order (Hadoop default scheduler).
	finish := make([]time.Duration, slots)
	for _, s := range stats {
		// Assign to the earliest-free slot.
		minI := 0
		for i := 1; i < slots; i++ {
			if finish[i] < finish[minI] {
				minI = i
			}
		}
		finish[minI] += s.Duration
	}
	var max time.Duration
	for _, f := range finish {
		if f > max {
			max = f
		}
	}
	return max
}

// Result is one job's output: pairs grouped per reduce partition, in key
// order within each partition.
type Result struct {
	Partitions [][]Pair
	Metrics    Metrics
}

// AllPairs flattens the partitions in order.
func (r *Result) AllPairs() []Pair {
	var out []Pair
	for _, p := range r.Partitions {
		out = append(out, p...)
	}
	return out
}

// JobOptions carries per-run observability settings. The zero value is
// fully disabled and adds no overhead.
type JobOptions struct {
	// Trace, when non-nil, becomes the parent of a "job:<name>" span the
	// engine records phases and task attempts under. Nil disables tracing
	// (span methods on nil receivers no-op).
	Trace *obs.Span
}

// Engine executes jobs.
type Engine interface {
	Run(job *Job) (*Result, error)
}

// TracingEngine is implemented by engines that accept per-run JobOptions
// (both *Local and *Coordinator do). Callers holding a plain Engine can
// type-assert to plug a trace in without changing call signatures.
type TracingEngine interface {
	Engine
	RunWith(job *Job, opts JobOptions) (*Result, error)
}

// taskError wraps a task failure with its origin.
type taskError struct {
	kind string
	id   int
	err  error
}

func (e *taskError) Error() string {
	return fmt.Sprintf("mr: %s task %d: %v", e.kind, e.id, e.err)
}

func (e *taskError) Unwrap() error { return e.err }
