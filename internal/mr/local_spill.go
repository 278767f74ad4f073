package mr

import (
	"os"
	"time"
)

// The spilling execution path of the Local engine, selected by
// SpillThreshold > 0 — the one alternate shuffle. Map output beyond the
// threshold is sorted and spilled to disk per partition; reducers consume a
// streaming k-way merge instead of a materialized bucket, so there is no
// shuffle step between the phases and shuffle volume is counted as the
// merge delivers it. Tasks are scheduled by the same runPhase/runTask as
// the in-memory pipeline.

// spillMapOut is a map attempt's output: its collector (which owns the
// spill files and arenas) and the runs it produced.
type spillMapOut struct {
	col      *spillCollector
	out      mapOutput
	counters map[string]int64
}

// spillReduceOut is a reduce attempt's output — pairs backed by the
// attempt's own arena — plus the shuffle volume its merge consumed.
type spillReduceOut struct {
	arena          byteArena
	out            []Pair
	records, bytes int64
	counters       map[string]int64
}

// runSpill executes a job with the external shuffle.
func (ex *localExec) runSpill(job *Job, opts JobOptions) (*Result, error) {
	jobSpan, err := beginJob(job, ex.name(), opts)
	if err != nil {
		return nil, err
	}
	defer jobSpan.End()
	start := time.Now()
	res := &Result{Metrics: Metrics{Job: job.Name}}
	m := &res.Metrics
	nred := job.reducers()
	dir := ex.l.SpillDir
	if dir == "" {
		dir = os.TempDir()
	}

	maps, stats, err := runPhase(ex, jobSpan, "map", len(job.Splits), func(_ slot, id, attempt int) (*spillMapOut, error) {
		if err := ex.inject("map", id, attempt); err != nil {
			return nil, err
		}
		mo := &spillMapOut{}
		counters, _, err := guarded(id, attempt, func(ctx TaskContext) (err error) {
			if mo.col, err = newSpillCollector(job, ctx, dir, ex.l.SpillThreshold, nred); err != nil {
				return err
			}
			if err := job.Map(ctx, job.Splits[id], mo.col.emit); err != nil {
				return err
			}
			mo.out, err = mo.col.finish()
			return err
		})
		mo.counters = counters
		if err != nil {
			mo.discard()
			return nil, err
		}
		return mo, nil
	}, (*spillMapOut).discard)
	// Merged pairs alias the collectors' arenas and files until the last
	// reducer is done with them.
	defer func() {
		for _, mo := range maps {
			mo.discard()
		}
	}()
	if err != nil {
		return nil, err
	}
	m.recordPhase("map", len(job.Splits), stats)
	for _, mo := range maps {
		m.addUserCounters(mo.counters)
		m.SpilledBytes += mo.col.spilled
	}
	obsSpillBytes.Add(m.SpilledBytes)

	reduces, stats, err := runPhase(ex, jobSpan, "reduce", nred, func(_ slot, p, attempt int) (*spillReduceOut, error) {
		if err := ex.inject("reduce", p, attempt); err != nil {
			return nil, err
		}
		// Reduce output is copied into the attempt's own arena: merged
		// pairs recycle with the collectors at the end of the job.
		ro := &spillReduceOut{}
		counters, _, err := guarded(p, attempt, func(ctx TaskContext) error {
			return mergeReduce(job, ctx, maps, ro)
		})
		ro.counters = counters
		if err != nil {
			ro.arena.release()
			return nil, err
		}
		return ro, nil
	}, func(ro *spillReduceOut) { ro.arena.release() })
	if err != nil {
		return nil, err
	}
	m.recordPhase("reduce", nred, stats)
	res.Partitions = make([][]Pair, nred)
	for p, ro := range reduces {
		res.Partitions[p] = ro.out
		m.addUserCounters(ro.counters)
		m.ShuffleRecords += ro.records
		m.ShuffleBytes += ro.bytes
	}
	obsShuffleRecords.Add(m.ShuffleRecords)
	obsShuffleBytes.Add(m.ShuffleBytes)
	res.finish(start)
	return res, nil
}

// discard removes the attempt's spill files and recycles its arenas; nil
// (a task that never committed) is a no-op.
func (mo *spillMapOut) discard() {
	if mo != nil && mo.col != nil {
		mo.col.discard()
	}
}

// mergeReduce streams partition ctx.TaskID of every map output through a
// k-way merge into the reducer (or straight to the output when the job has
// none), counting the shuffle volume it consumes.
func mergeReduce(job *Job, ctx TaskContext, maps []*spillMapOut, ro *spillReduceOut) error {
	p := ctx.TaskID
	var sources []*runReader
	defer func() {
		for _, s := range sources {
			s.close()
		}
	}()
	for _, mo := range maps {
		for _, run := range mo.out.runs[p] {
			r, err := openRunReader(run)
			if err != nil {
				return err
			}
			sources = append(sources, r)
		}
		if len(mo.out.mem[p]) > 0 {
			sources = append(sources, memRunReader(mo.out.mem[p]))
		}
	}
	merge := newMergeStream(job, sources)
	emit := emitInto(&ro.arena, &ro.out)
	// One key group at a time: values accumulates until the key changes.
	var (
		curKey []byte
		values [][]byte
		open   bool
	)
	flush := func() error {
		if !open {
			return nil
		}
		err := job.Reduce(ctx, curKey, values, emit)
		values, open = nil, false
		return err
	}
	for {
		pair, ok, err := merge.next()
		if err != nil {
			return err
		}
		if !ok {
			return flush()
		}
		ro.records++
		ro.bytes += int64(len(pair.Key) + len(pair.Value))
		if job.Reduce == nil {
			if err := emit(pair.Key, pair.Value); err != nil {
				return err
			}
			continue
		}
		if !open || job.compare(pair.Key, curKey) != 0 {
			if err := flush(); err != nil {
				return err
			}
			curKey, open = pair.Key, true
		}
		values = append(values, pair.Value)
	}
}
