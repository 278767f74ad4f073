package mr

import (
	"runtime"
	"time"
)

// Local is the in-process engine. The zero value is usable: it runs tasks
// on up to GOMAXPROCS goroutines with up to 3 attempts per task.
type Local struct {
	// Workers caps concurrent task execution; 0 means GOMAXPROCS.
	Workers int
	// MaxAttempts per task; 0 means 3.
	MaxAttempts int
	// SpeculationAfter enables Hadoop-style backup tasks: when an attempt
	// has run longer than this duration and a slot is idle, a backup
	// attempt of the same task is launched and the first to finish wins.
	// 0 disables speculation.
	SpeculationAfter time.Duration
	// SpillThreshold, when positive, switches to the external shuffle:
	// map-output partitions exceeding this many records are sorted and
	// spilled to disk, and reducers stream a k-way merge (see spill.go).
	SpillThreshold int
	// SpillDir hosts spill files; empty means the OS temp directory.
	SpillDir string
	// FailureInjector, when non-nil, is consulted before each task attempt;
	// returning a non-nil error makes the attempt fail with it. Used by
	// tests to exercise the retry path.
	FailureInjector func(kind string, ctx TaskContext) error
	// DelayInjector, when non-nil, is called at the start of each attempt
	// and can sleep to simulate stragglers (exercises speculation).
	DelayInjector func(kind string, ctx TaskContext)
}

// Run implements Engine.
func (l *Local) Run(job *Job) (*Result, error) {
	return l.RunWith(job, JobOptions{})
}

// RunWith implements TracingEngine: like Run, recording the job under
// opts.Trace when set.
func (l *Local) RunWith(job *Job, opts JobOptions) (*Result, error) {
	workers := l.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ex := &localExec{l: l, sem: make(chan struct{}, workers)}
	if l.SpillThreshold > 0 {
		return ex.runSpill(job, opts)
	}
	return run(ex, job, opts)
}

// localExec is Local's executor for one run: a semaphore of Workers slots
// and a direct call of the task body.
type localExec struct {
	l   *Local
	sem chan struct{}
}

// localSlot is one semaphore token; the slots are interchangeable.
type localSlot struct{}

func (localSlot) label() string { return "" }

func (ex *localExec) acquire(wait bool) (slot, error) {
	if wait {
		ex.sem <- struct{}{}
		return localSlot{}, nil
	}
	select {
	case ex.sem <- struct{}{}:
		return localSlot{}, nil
	default:
		return nil, nil
	}
}

func (ex *localExec) release(slot) { <-ex.sem }

func (ex *localExec) attempts() int {
	if ex.l.MaxAttempts > 0 {
		return ex.l.MaxAttempts
	}
	return 3
}

func (ex *localExec) speculateAfter() time.Duration { return ex.l.SpeculationAfter }

func (ex *localExec) name() string { return "local" }

func (ex *localExec) execute(_ slot, t *wireTask) (wireReply, error) {
	if err := ex.inject(t.Kind, t.TaskID, t.Attempt); err != nil {
		return wireReply{}, err
	}
	return executeTask(t)
}

// inject consults the test injectors ahead of an attempt's body.
func (ex *localExec) inject(kind string, id, attempt int) error {
	ctx := TaskContext{TaskID: id, Attempt: attempt}
	if ex.l.DelayInjector != nil {
		ex.l.DelayInjector(kind, ctx)
	}
	if ex.l.FailureInjector != nil {
		return ex.l.FailureInjector(kind, ctx)
	}
	return nil
}
