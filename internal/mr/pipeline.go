package mr

import (
	"fmt"
	"time"

	"dwmaxerr/internal/obs"
)

// The one way to run a job. run is the phase pipeline, runTask the attempt
// loop, executeTask the task body; an engine plugs in beneath them as an
// executor and decides nothing about scheduling.

// slots is the capacity an engine lends the attempt loop, plus the two
// policy knobs both engines already expose.
type slots interface {
	// acquire claims a slot for one attempt. With wait it blocks until one
	// is free and fails only when none ever will be; without, it returns
	// nil when none is idle right now — speculative backups use spare
	// capacity, they never queue for it.
	acquire(wait bool) (slot, error)
	release(slot)
	attempts() int                 // per task, speculative backups included
	speculateAfter() time.Duration // 0 disables backups
}

// slot is one claimed unit of capacity. label names it in attempt spans;
// empty when the engine's slots are indistinguishable.
type slot interface{ label() string }

// executor is what an engine supplies to the pipeline: get a slot and
// execute this attempt.
type executor interface {
	slots
	// execute runs one attempt of t in s and returns once it has succeeded
	// or failed. A successful reply's pairs stay valid until its recycle.
	execute(s slot, t *wireTask) (wireReply, error)
	// name labels the job span's "engine" attribute.
	name() string
}

// beginJob validates job and opens its "job:<name>" span; the caller ends it.
func beginJob(job *Job, engine string, opts JobOptions) (*obs.Span, error) {
	if err := job.validate(); err != nil {
		return nil, err
	}
	obsJobsRun.Inc()
	span := opts.Trace.Child("job:" + job.Name)
	span.SetStr("engine", engine)
	span.SetInt("splits", int64(len(job.Splits)))
	return span, nil
}

// finish closes a job's metrics: output volume and wall time.
func (res *Result) finish(start time.Time) {
	m := &res.Metrics
	for _, part := range res.Partitions {
		m.OutputRecords += int64(len(part))
		for _, kv := range part {
			m.OutputBytes += int64(len(kv.Key) + len(kv.Value))
		}
	}
	m.WallTime = time.Since(start)
}

// run executes job on ex with the in-memory shuffle: map phase, shuffle
// (concatenate map output in split order, account, sort), reduce phase.
func run(ex executor, job *Job, opts JobOptions) (*Result, error) {
	jobSpan, err := beginJob(job, ex.name(), opts)
	if err != nil {
		return nil, err
	}
	defer jobSpan.End()
	start := time.Now()
	res := &Result{Metrics: Metrics{Job: job.Name}}
	m := &res.Metrics
	nred := job.reducers()

	// phase runs one phase's tasks; fill completes the task for one id.
	base := wireTask{JobName: job.regName, Params: job.regParams, Reducers: nred, job: job}
	phase := func(kind string, n int, fill func(t *wireTask)) ([]wireReply, error) {
		replies, stats, err := runPhase(ex, jobSpan, kind, n, func(s slot, id, attempt int) (wireReply, error) {
			t := base
			t.Kind, t.TaskID, t.Attempt = kind, id, attempt
			fill(&t)
			return ex.execute(s, &t)
		}, wireReply.recycle)
		if err != nil {
			return nil, err
		}
		m.recordPhase(kind, n, stats)
		for _, r := range replies {
			m.addUserCounters(r.Counters)
		}
		return replies, nil
	}

	maps, err := phase("map", len(job.Splits), func(t *wireTask) { t.Split = job.Splits[t.TaskID] })
	if err != nil {
		return nil, err
	}

	// Deterministic shuffle: whichever attempt of whichever worker won, a
	// partition sees map output in split order. Every Parts slice holds
	// exactly nred partitions (executeTask builds it so; validateReply
	// rejects anything else off the wire).
	shuffleSpan := jobSpan.Child("shuffle")
	buckets := make([][]Pair, nred)
	for _, r := range maps {
		for p, pairs := range r.Parts {
			buckets[p] = append(buckets[p], pairs...)
			m.ShuffleRecords += int64(len(pairs))
			for _, kv := range pairs {
				m.ShuffleBytes += int64(len(kv.Key) + len(kv.Value))
			}
		}
	}
	obsShuffleRecords.Add(m.ShuffleRecords)
	obsShuffleBytes.Add(m.ShuffleBytes)
	for p := range buckets {
		sortPairs(job, buckets[p])
	}
	shuffleSpan.SetInt("records", m.ShuffleRecords)
	shuffleSpan.SetInt("bytes", m.ShuffleBytes)
	shuffleSpan.End()

	res.Partitions = buckets
	if job.Reduce != nil {
		reduces, err := phase("reduce", nred, func(t *wireTask) { t.Bucket = buckets[t.TaskID] })
		if err != nil {
			return nil, err
		}
		res.Partitions = make([][]Pair, nred)
		for p, r := range reduces {
			res.Partitions[p] = r.Out
		}
	}
	res.finish(start)
	return res, nil
}

// runPhase runs tasks 0..n-1 of one phase under a "<kind>-phase" span: a
// slot is claimed for each task's primary attempt in task order, then the
// task's attempt loop runs on its own goroutine. It returns the committed
// output per task (the zero O where a task failed — also on error, so
// callers can clean up), one TaskStat per attempt, and the first failure.
func runPhase[O any](sl slots, jobSpan *obs.Span, kind string, n int,
	exec func(s slot, id, attempt int) (O, error), discard func(O)) ([]O, []TaskStat, error) {
	span := jobSpan.Child(kind + "-phase")
	defer span.End()
	type taskDone struct {
		id    int
		out   O
		stats []TaskStat
		err   error
	}
	done := make(chan taskDone, n) // one send per task
	var firstErr error
	launched := 0
	for id := 0; id < n; id++ {
		s, err := sl.acquire(true)
		if err != nil {
			firstErr = &taskError{kind: kind, id: id, err: err}
			break
		}
		launched++
		go func(id int) {
			out, stats, err := runTask(sl, span, kind, id, s, exec, discard)
			done <- taskDone{id, out, stats, err}
		}(id)
	}
	outs := make([]O, n)
	var stats []TaskStat
	for ; launched > 0; launched-- {
		d := <-done
		stats = append(stats, d.stats...)
		if d.err != nil {
			if firstErr == nil {
				firstErr = &taskError{kind: kind, id: d.id, err: d.err}
			}
			continue
		}
		outs[d.id] = d.out
	}
	return outs, stats, firstErr
}

// runTask drives the attempts of one task: a primary in the slot the phase
// claimed, one speculative backup if it is still running alone after
// speculateAfter and a slot is idle, and a retry after each failure until
// attempts() have been launched. The first success commits; a later one is
// a duplicate, counted and handed to discard. Every launched attempt is
// waited out, so no goroutine outlives the task and stats holds one
// TaskStat per attempt with its true attempt number.
func runTask[O any](sl slots, phase *obs.Span, kind string, id int, first slot,
	exec func(s slot, id, attempt int) (O, error), discard func(O)) (winner O, stats []TaskStat, err error) {
	type result struct {
		out     O
		err     error
		attempt int
		dur     time.Duration
	}
	maxAttempts := sl.attempts()
	results := make(chan result, maxAttempts) // one send per attempt
	attempt, inFlight := 0, 0
	launch := func(s slot) {
		attempt++
		inFlight++
		obsTasksLaunched.Inc()
		go func(a int) {
			span := phase.Child(kind)
			span.SetInt("task", int64(id))
			span.SetInt("attempt", int64(a))
			if w := s.label(); w != "" {
				span.SetStr("worker", w)
			}
			t0 := time.Now()
			out, err := exec(s, id, a)
			sl.release(s)
			span.SetBool("failed", err != nil)
			span.End()
			results <- result{out, err, a, time.Since(t0)}
		}(attempt)
	}
	launch(first)
	var spec <-chan time.Time
	if d := sl.speculateAfter(); d > 0 {
		spec = time.After(d)
	}
	committed := false
	var lastErr error
	for inFlight > 0 {
		select {
		case r := <-results:
			inFlight--
			stats = append(stats, TaskStat{TaskID: id, Attempt: r.attempt, Duration: r.dur, Failed: r.err != nil})
			switch {
			case r.err != nil:
				lastErr = r.err
			case committed:
				obsTaskCommitDups.Inc()
				discard(r.out)
			default:
				committed, winner = true, r.out
			}
			if committed || attempt >= maxAttempts {
				continue
			}
			s, err := sl.acquire(true)
			if err != nil {
				lastErr = fmt.Errorf("%w (last attempt: %v)", err, lastErr)
				continue
			}
			obsTaskRetries.Inc()
			launch(s)
		case <-spec:
			spec = nil
			if !committed && inFlight == 1 && attempt < maxAttempts {
				if s, err := sl.acquire(false); err == nil && s != nil {
					obsSpeculativeAttempts.Inc()
					launch(s)
				}
			}
		}
	}
	if !committed {
		return winner, stats, fmt.Errorf("failed after %d attempts: %w", attempt, lastErr)
	}
	return winner, stats, nil
}

// guarded runs one attempt body with fresh user counters, turning a panic
// into the attempt's error and recording its busy time — the frame around
// every task body, executeTask's and the spill shuffle's alike.
func guarded(id, attempt int, body func(ctx TaskContext) error) (counters map[string]int64, busy time.Duration, err error) {
	start := time.Now()
	c := NewCounters()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
		busy = time.Since(start)
		obsWorkerTasksExecuted.Inc()
		obsTaskDurationUS.Observe(busy.Microseconds())
		counters = c.snapshot()
	}()
	err = body(TaskContext{TaskID: id, Attempt: attempt, Counters: c})
	return
}

// executeTask runs one attempt of t — the single task body behind every
// executor. Local and shared-memory workers hand it the driver's *Job in
// t.job; a task decoded off the wire has none and is rebuilt from its
// registry reference. The reply carries the attempt's user counters and
// busy time; its pairs live in pooled arenas until recycle. On failure
// the arenas are recycled here and the reply carries only the error text.
func executeTask(t *wireTask) (wireReply, error) {
	reply := wireReply{TaskID: t.TaskID, Attempt: t.Attempt}
	var arena *byteArena
	var err error
	reply.Counters, reply.Duration, err = guarded(t.TaskID, t.Attempt, func(ctx TaskContext) error {
		job := t.job
		if job == nil {
			var err error
			if job, err = LookupJob(t.JobName, t.Params); err != nil {
				return err
			}
		}
		switch t.Kind {
		case "map":
			mc := newMapCollector(job, t.Reducers)
			arena = &mc.arena
			if err := job.Map(ctx, t.Split, mc.emit); err != nil {
				return err
			}
			if job.Combine != nil {
				// The combiner sees the map attempt's TaskContext
				// (attempt number, counters) on every engine.
				for p := range mc.parts {
					combined, err := combinePartition(job, ctx, arena, mc.parts[p])
					if err != nil {
						return err
					}
					mc.parts[p] = combined
				}
			}
			reply.Parts = mc.parts
			return nil
		case "reduce":
			arena = &byteArena{}
			return reduceBucket(job, ctx, t.Bucket, emitInto(arena, &reply.Out))
		default:
			return fmt.Errorf("mr: unknown task kind %q", t.Kind)
		}
	})
	if err != nil {
		if arena != nil {
			arena.release()
		}
		return wireReply{TaskID: t.TaskID, Attempt: t.Attempt, Duration: reply.Duration, Err: err.Error()}, err
	}
	reply.release = arena.release
	return reply, nil
}

// forEachGroup calls fn once per run of equal keys in sorted. One values
// slice is reused across groups (valid only during the call, per the
// ReduceFunc contract in mr.go).
func forEachGroup(job *Job, sorted []Pair, fn func(key []byte, values [][]byte) error) error {
	var values [][]byte
	for i := 0; i < len(sorted); {
		j := i + 1
		for j < len(sorted) && job.compare(sorted[j].Key, sorted[i].Key) == 0 {
			j++
		}
		values = values[:0]
		for _, kv := range sorted[i:j] {
			values = append(values, kv.Value)
		}
		if err := fn(sorted[i].Key, values); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// reduceBucket groups a sorted bucket by key and invokes the reducer.
func reduceBucket(job *Job, ctx TaskContext, bucket []Pair, emit Emit) error {
	return forEachGroup(job, bucket, func(key []byte, values [][]byte) error {
		return job.Reduce(ctx, key, values, emit)
	})
}

// combineSorted applies the combiner to an already-sorted pair slice,
// emitting combined records into arena.
func combineSorted(job *Job, ctx TaskContext, arena *byteArena, sorted []Pair) ([]Pair, error) {
	var out []Pair
	emit := emitInto(arena, &out)
	err := forEachGroup(job, sorted, func(key []byte, values [][]byte) error {
		return job.Combine(ctx, key, values, emit)
	})
	return out, err
}

// combinePartition applies the combiner to one map task's partition
// output, which stays in arrival order (a sorted scratch copy is combined).
func combinePartition(job *Job, ctx TaskContext, arena *byteArena, pairs []Pair) ([]Pair, error) {
	sorted := getPairBuf(len(pairs))
	defer putPairBuf(sorted)
	copy(sorted, pairs)
	sortPairs(job, sorted)
	return combineSorted(job, ctx, arena, sorted)
}
