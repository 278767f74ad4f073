package dist

import (
	"fmt"
	"math"
	"sync"

	"dwmaxerr/internal/errtree"
	"dwmaxerr/internal/greedy"
	"dwmaxerr/internal/mr"
	"dwmaxerr/internal/synopsis"
	"dwmaxerr/internal/wavelet"
)

// DGreedyAbs / DGreedyRel — Section 5, Algorithms 3–6.
//
// The error tree is cut into one root sub-tree (nodes 0..R-1, kept on the
// driver) and R base sub-trees of S leaves each (Figure 4). A centralized
// greedy run on the root sub-tree yields the candidate retained sets
// C_root (genRootSets, Algorithm 4): the suffixes of its discard order, so
// candidate i retains the i last-discarded root nodes.
//
// Job 1 (level-1 workers + level-2 workers): each base sub-tree worker
// computes, for every candidate i, the incoming error its leaves inherit
// from the deleted root nodes, runs the local greedy once per *distinct*
// incoming error (log R + 2 runs, Section 5.3), and emits the deletion
// order compacted into error-bucket histograms keyed by [candidate,
// bucket] (ErrHistGreedyAbs, Algorithm 3). Level-2 reducers merge the
// per-candidate streams in descending error order and report the error at
// position B - i (combineResults, Algorithm 5).
//
// Job 2: with the winning candidate known, each worker re-runs the greedy
// once and emits only the nodes whose removal error exceeds the winning
// estimate, as (bucket, [nodes]) lists; the driver keeps the B - i
// last-discarded nodes overall and unions them with the retained root
// nodes. A final evaluation job measures the exact error of the synopsis.

// histEntry is one compacted group of a local deletion order: count nodes
// were discarded while the bucketed running-max error was Bucket.
type histEntry struct {
	Bucket float64
	Count  int
}

// selEntry is one emitted retained-candidate group of job 2.
type selEntry struct {
	Indices []int // global error-tree node indices, in discard order
	Values  []float64
}

// DGreedyAbs builds a synopsis of at most budget coefficients minimizing
// the maximum absolute error with the distributed greedy algorithm.
func DGreedyAbs(src Source, budget int, cfg Config) (*Report, error) {
	return dGreedy(src, budget, cfg, false)
}

// DGreedyRel is the relative-error variant of Section 5.4: level-1 workers
// run GreedyRel with the sanity bound cfg.Sanity.
func DGreedyRel(src Source, budget int, cfg Config) (*Report, error) {
	return dGreedy(src, budget, cfg, true)
}

func dGreedy(src Source, budget int, cfg Config, rel bool) (*Report, error) {
	n := src.N()
	if err := padCheck(n); err != nil {
		return nil, err
	}
	if budget < 1 {
		return nil, fmt.Errorf("dist: budget %d < 1", budget)
	}
	s, err := cfg.subtreeLeaves(n)
	if err != nil {
		return nil, err
	}
	eng := cfg.engine()
	report := &Report{}
	r := n / s // number of base sub-trees == root sub-tree size
	name := "dgreedy-abs"
	if rel {
		name = "dgreedy-rel"
	}
	algSpan := cfg.Trace.Child(name)
	defer algSpan.End()
	algSpan.SetInt("budget", int64(budget))
	algSpan.SetInt("subtrees", int64(r))

	// ---- Root sub-tree: means job + centralized greedy (genRootSets) ----
	means, meansMetrics, err := chunkMeans(src, s, eng, algSpan)
	if err != nil {
		return nil, err
	}
	report.Jobs = append(report.Jobs, meansMetrics)
	rootCoef, err := wavelet.Transform(means)
	if err != nil {
		return nil, err
	}
	var rootSteps []greedy.Step
	if rel {
		rootSteps, err = greedy.RunRel(rootCoef, greedy.Denominators(means, cfg.sanity()), greedy.Options{HasRoot: true})
	} else {
		rootSteps, err = greedy.RunAbs(rootCoef, greedy.Options{HasRoot: true})
	}
	if err != nil {
		return nil, err
	}
	maxCand := r
	if budget < maxCand {
		maxCand = budget
	}
	rootOrder := make([]int, len(rootSteps))
	for i, st := range rootSteps {
		rootOrder[i] = st.Index
	}
	// retainedAt(i) = set of root nodes retained by candidate i (the i
	// last-discarded); exposed below as incremental updates.
	eb := cfg.BucketWidth
	if eb <= 0 {
		// Derive a bucket width from the error scale of the root run
		// (relative errors are ratios, so coefficient magnitudes only
		// inform the absolute metric).
		scale := 0.0
		for _, st := range rootSteps {
			if st.Err > scale {
				scale = st.Err
			}
		}
		if !rel {
			for _, c := range rootCoef {
				if v := math.Abs(c); v > scale {
					scale = v
				}
			}
		}
		if scale == 0 {
			scale = 1
		}
		eb = scale / 4096
	}

	// ---- Job 1: speculative histogram runs + combineResults ----
	reducers := cfg.Reducers
	if reducers <= 0 {
		reducers = 4
	}
	histJob, err := histFileJob.job(src, histParams{
		S: s, Budget: budget, MaxCand: maxCand, Eb: eb, RootCoef: rootCoef, RootOrder: rootOrder,
		Reducers: reducers, Rel: rel, Sanity: cfg.sanity(),
	})
	if err != nil {
		return nil, err
	}
	obsGreedyCandidates.Add(int64(maxCand + 1))
	// With a checkpoint store, the histogram output — job 1, the dominant
	// cost of the pipeline — is recorded; a restarted driver replays it
	// and goes straight to candidate selection.
	var histParts [][]mr.Pair
	histKey := ""
	if cfg.Checkpoint != nil {
		histKey = dgreedyHistKey(n, s, budget, eb, rel, cfg.sanity())
		body, ok, err := checkpointGet(cfg.Checkpoint, histKey)
		if err != nil {
			return nil, err
		}
		if ok {
			if histParts, err = decodePartitions(body); err != nil {
				return nil, err
			}
		}
	}
	if histParts == nil {
		histRes, err := runJob(eng, histJob, algSpan)
		if err != nil {
			return nil, err
		}
		report.Jobs = append(report.Jobs, histRes.Metrics)
		histParts = histRes.Partitions
		if histKey != "" {
			if err := checkpointPut(cfg.Checkpoint, histKey, appendPartitions(nil, histParts)); err != nil {
				return nil, err
			}
		}
	}

	bestI, minError := -1, math.Inf(1)
	for _, partPairs := range histParts {
		for _, kv := range partPairs {
			i := int(mr.DecodeUint64(kv.Key))
			e := mr.DecodeFloat64(kv.Value)
			if e < minError || (e == minError && i < bestI) {
				bestI, minError = i, e
			}
		}
	}
	if bestI < 0 {
		return nil, fmt.Errorf("dist: combineResults produced no candidate")
	}

	// ---- Job 2: materialize the synopsis for the winning candidate ----
	retained := rootOrder[len(rootOrder)-bestI:]
	selJob, err := selectFileJob.job(src, selParams{
		S: s, RootCoef: rootCoef, RetainRoot: retained,
		Cutoff: minError - 2*eb, // one-bucket slack against bucket rounding
		Eb:     eb, Rel: rel, Sanity: cfg.sanity(),
	})
	if err != nil {
		return nil, err
	}
	selRes, err := runJob(eng, selJob, algSpan)
	if err != nil {
		return nil, err
	}
	report.Jobs = append(report.Jobs, selRes.Metrics)

	// Merge: keys already sort ascending by -bucket == descending bucket.
	want := budget - bestI
	syn := synopsis.New(n)
	for _, node := range retained {
		if rootCoef[node] != 0 {
			syn.Terms = append(syn.Terms, synopsis.Coefficient{Index: node, Value: rootCoef[node]})
		}
	}
	taken := 0
	for _, kv := range selRes.Partitions[0] {
		if taken >= want {
			break
		}
		entry, err := decodeSelEntry(kv.Value)
		if err != nil {
			return nil, err
		}
		// Nodes inside a group were discarded in order; the later ones are
		// the more valuable, so walk each group from its tail.
		for k := len(entry.Indices) - 1; k >= 0 && taken < want; k-- {
			if entry.Values[k] == 0 {
				continue
			}
			syn.Terms = append(syn.Terms, synopsis.Coefficient{Index: entry.Indices[k], Value: entry.Values[k]})
			taken++
		}
	}
	syn.Normalize()
	report.Synopsis = syn

	var maxErr float64
	var evalMetrics mr.Metrics
	if rel {
		maxErr, evalMetrics, err = evaluateMax(src, syn, s, eng, cfg.sanity(), algSpan)
	} else {
		maxErr, evalMetrics, err = evaluateMax(src, syn, s, eng, 0, algSpan)
	}
	if err != nil {
		return nil, err
	}
	report.Jobs = append(report.Jobs, evalMetrics)
	report.MaxErr = maxErr
	return report, nil
}

// appendHistKey appends the [candidate, descending bucket] shuffle key.
// The candidate is a memcmp-ordered varint (wire v4): one byte instead
// of four for the first 241 candidates, without giving up the
// (candidate asc, bucket desc) sort order the combine reducer relies
// on. Append-style so the histogram emit loop reuses one scratch buffer
// per task (the engine copies on emit).
func appendHistKey(dst []byte, cand int, bucket float64) []byte {
	dst = mr.AppendOrderedUvarint(dst, uint64(cand))
	return mr.AppendFloat64(dst, -bucket)
}

// histKeyCand decodes the candidate component of appendHistKey and
// returns the offset where the bucket component starts.
func histKeyCand(key []byte) (cand int, bucketOff int, err error) {
	c, n := mr.OrderedUvarint(key)
	if n <= 0 || len(key) != n+8 {
		return 0, 0, fmt.Errorf("dist: malformed %d-byte histogram key", len(key))
	}
	return int(c), n, nil
}

// histPartition routes a histogram key by candidate; reduce in uint64
// space so the index stays non-negative on 32-bit platforms.
func histPartition(key []byte, nred int) int {
	c, _ := mr.OrderedUvarint(key)
	return int(c % uint64(nred))
}

// bucketize compacts a deletion order into (bucketed running-max error,
// count) groups per Algorithm 3's list batching.
func bucketize(steps []greedy.Step, eb float64) []histEntry {
	var out []histEntry
	runMax := math.Inf(-1)
	for _, st := range steps {
		if st.Err > runMax {
			runMax = st.Err
		}
		b := math.Floor(runMax/eb) * eb
		if len(out) > 0 && out[len(out)-1].Bucket == b {
			out[len(out)-1].Count++
		} else {
			out = append(out, histEntry{Bucket: b, Count: 1})
		}
	}
	return out
}

// makeCombineResults builds the level-2 reducer of Algorithm 5. Keys
// arrive sorted (candidate asc, bucket desc, sentinel last); the reducer
// accumulates counts and, at each candidate's sentinel, emits the error at
// list position budget - candidate.
//
// The running (cum, answer) of the candidate being streamed has to survive
// from one key group to the next, and the one ReduceFunc serves every
// reduce attempt of the job at once (parallel partitions, speculative
// twins). So the state is keyed by (task, attempt, candidate) and the map
// holding it is locked: an entry is only ever touched by its own attempt's
// goroutine, and the sentinel — the last key of a candidate — removes it,
// so a finished run leaves nothing behind.
func makeCombineResults(budget int) mr.ReduceFunc {
	type state struct {
		cum    int
		answer float64
		found  bool
	}
	var mu sync.Mutex
	states := map[[3]int]*state{} // guarded by mu
	return func(ctx mr.TaskContext, key []byte, values [][]byte, emit mr.Emit) error {
		cand, bucketOff, err := histKeyCand(key)
		if err != nil {
			return err
		}
		sk := [3]int{ctx.TaskID, ctx.Attempt, cand}
		bucket := -mr.DecodeFloat64(key[bucketOff:])
		sentinel := math.IsInf(bucket, -1)
		mu.Lock()
		st := states[sk]
		if sentinel {
			delete(states, sk)
		} else if st == nil {
			st = &state{}
			states[sk] = st
		}
		mu.Unlock()
		if sentinel {
			// Report this candidate's achieved error estimate. No state,
			// or none found, means fewer total nodes than the budget:
			// everything is retained.
			ans := 0.0
			if st != nil && st.found {
				ans = st.answer
			}
			return emit(mr.EncodeUint64(uint64(cand)), mr.EncodeFloat64(ans))
		}
		var count int
		for _, v := range values {
			c, n := mr.Uvarint(v)
			if n <= 0 {
				return fmt.Errorf("dist: malformed histogram count value")
			}
			count += int(c)
		}
		target := budget - cand // 0-based position of the first non-retained node
		if !st.found && st.cum+count > target {
			st.answer = bucket
			st.found = true
		}
		st.cum += count
		return nil
	}
}

// histParams parameterizes job 1: the partitioning (S), the budget, and the
// root run's outputs the speculative candidates are derived from.
type histParams struct {
	S         int
	Budget    int
	MaxCand   int
	Eb        float64
	RootCoef  []float64
	RootOrder []int
	Reducers  int
	Rel       bool
	Sanity    float64
}

// dgreedyHistJob builds job 1: level-1 maps run one greedy per distinct
// incoming error and emit per-candidate error-bucket histograms, level-2
// reducers combine them (makeCombineResults).
func dgreedyHistJob(src Source, n int, p histParams) (*mr.Job, error) {
	part, err := errtree.PartitionRootBase(n, p.S)
	if err != nil {
		return nil, err
	}
	s, rootCoef, rootOrder, maxCand, eb, rel, sanity := p.S, p.RootCoef, p.RootOrder, p.MaxCand, p.Eb, p.Rel, p.Sanity
	mapFn := func(ctx mr.TaskContext, split mr.Split, emit mr.Emit) error {
		j, err := chunkIndex(split)
		if err != nil {
			return err
		}
		chunk, err := src.Chunk(j*s, (j+1)*s)
		if err != nil {
			return err
		}
		details, _, err := wavelet.LocalTransform(chunk)
		if err != nil {
			return err
		}
		var den []float64
		if rel {
			den = greedy.Denominators(chunk, sanity)
		}
		signs := part.RootPathSigns(j)
		// Incoming error per candidate, updated incrementally as the
		// retained suffix grows.
		eIn := 0.0
		for node, sign := range signs {
			eIn -= float64(sign) * rootCoef[node]
		}
		cache := map[float64][]histEntry{}
		runHist := func(e float64) ([]histEntry, error) {
			if h, ok := cache[e]; ok {
				return h, nil
			}
			obsGreedyRuns.Inc()
			ctx.Counters.Add("dgreedy.greedy_runs", 1)
			var steps []greedy.Step
			var err error
			if rel {
				steps, err = greedy.RunRel(details, den, greedy.Options{InitialErr: e})
			} else {
				steps, err = greedy.RunAbs(details, greedy.Options{InitialErr: e})
			}
			if err != nil {
				return nil, err
			}
			h := bucketize(steps, eb)
			cache[e] = h
			return h, nil
		}
		var kbuf, vbuf []byte // reused across emits: the engine copies
		for i := 0; i <= maxCand; i++ {
			if i > 0 {
				// Candidate i additionally retains the node discarded at
				// step R - i of the root run.
				node := rootOrder[len(rootOrder)-i]
				if sign, ok := signs[node]; ok {
					eIn += float64(sign) * rootCoef[node]
				}
			}
			hist, err := runHist(eIn)
			if err != nil {
				return err
			}
			for _, h := range hist {
				kbuf = appendHistKey(kbuf[:0], i, h.Bucket)
				vbuf = mr.AppendUvarint(vbuf[:0], uint64(h.Count))
				if err := emit(kbuf, vbuf); err != nil {
					return err
				}
				ctx.Counters.Add("dgreedy.hist_records", 1)
			}
			if j == 0 {
				// Sentinel closing candidate i's stream (sorts last).
				kbuf = appendHistKey(kbuf[:0], i, math.Inf(-1))
				vbuf = mr.AppendUvarint(vbuf[:0], 0)
				if err := emit(kbuf, vbuf); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return &mr.Job{
		Name:      "dgreedy-hist",
		Splits:    chunkSplits(n, s),
		Reducers:  p.Reducers,
		Partition: histPartition,
		Map:       mapFn,
		Reduce:    makeCombineResults(p.Budget),
	}, nil
}

// selParams parameterizes job 2: the winning candidate's retained root
// nodes and the error cutoff below which node groups are never retained.
type selParams struct {
	S          int
	RootCoef   []float64
	RetainRoot []int
	Cutoff     float64
	Eb         float64
	Rel        bool
	Sanity     float64
}

// dgreedySelectJob builds job 2: a single greedy run per base sub-tree for
// the winning candidate, emitting only node groups whose bucketed
// running-max error clears the winning estimate.
func dgreedySelectJob(src Source, n int, p selParams) (*mr.Job, error) {
	part, err := errtree.PartitionRootBase(n, p.S)
	if err != nil {
		return nil, err
	}
	s, rootCoef, cutoff, eb, rel, sanity := p.S, p.RootCoef, p.Cutoff, p.Eb, p.Rel, p.Sanity
	retainRoot := make(map[int]bool, len(p.RetainRoot))
	for _, node := range p.RetainRoot {
		retainRoot[node] = true
	}
	mapFn := func(ctx mr.TaskContext, split mr.Split, emit mr.Emit) error {
		j, err := chunkIndex(split)
		if err != nil {
			return err
		}
		chunk, err := src.Chunk(j*s, (j+1)*s)
		if err != nil {
			return err
		}
		details, _, err := wavelet.LocalTransform(chunk)
		if err != nil {
			return err
		}
		eIn := part.IncomingError(j, rootCoef, retainRoot)
		var steps []greedy.Step
		if rel {
			steps, err = greedy.RunRel(details, greedy.Denominators(chunk, sanity), greedy.Options{InitialErr: eIn})
		} else {
			steps, err = greedy.RunAbs(details, greedy.Options{InitialErr: eIn})
		}
		if err != nil {
			return err
		}
		// Emit groups (bucketed running max, node list), skipping groups
		// below the winning error (they are never retained).
		runMax := math.Inf(-1)
		groupStart := 0
		flush := func(end int, bucket float64) error {
			if end == groupStart || bucket < cutoff {
				groupStart = end
				return nil
			}
			entry := selEntry{}
			for _, st := range steps[groupStart:end] {
				entry.Indices = append(entry.Indices, wavelet.GlobalIndex(n, s, j, st.Index))
				entry.Values = append(entry.Values, details[st.Index])
			}
			groupStart = end
			ctx.Counters.Add("dgreedy.select_groups", 1)
			return emit(mr.EncodeFloat64(-bucket), appendSelEntry(nil, entry))
		}
		curBucket := math.Inf(-1)
		for t, st := range steps {
			if st.Err > runMax {
				runMax = st.Err
			}
			b := math.Floor(runMax/eb) * eb
			if b != curBucket {
				if err := flush(t, curBucket); err != nil {
					return err
				}
				curBucket = b
			}
		}
		return flush(len(steps), curBucket)
	}
	return &mr.Job{
		Name:     "dgreedy-select",
		Splits:   chunkSplits(n, s),
		Map:      mapFn,
		Reducers: 1,
	}, nil
}
