package dist

import (
	"fmt"
	"math"
	"sort"
	"time"

	"dwmaxerr/internal/chaos"
	"dwmaxerr/internal/dp"
	"dwmaxerr/internal/errtree"
	"dwmaxerr/internal/mr"
	"dwmaxerr/internal/obs"
	"dwmaxerr/internal/synopsis"
	"dwmaxerr/internal/wavelet"
)

// DMHaarSpace / DIndirectHaar — Section 4, Algorithms 1–2.
//
// The error tree is cut into layers of height-h sub-trees (Figure 3,
// errtree.Partition). A bottom-up sequence of jobs runs the MinHaarSpace
// DP per sub-tree in parallel; the only data crossing a layer boundary is
// the M-row of each local root (communication O(N·|M|/2^h), Equation 6).
// After the topmost sub-tree finishes and the overall-average coefficient
// is fixed (FinishRoot), a top-down sequence of jobs re-enters each
// sub-problem to select the retained coefficients: every sub-tree re-solves
// its local DP and messages each child sub-tree the incoming value chosen
// for it.
//
// DIndirectHaar answers Problem 1 by binary search over the error bound
// (Algorithm 2), with the bounds derived by two extra jobs: the
// (B+1)-largest coefficient (lower) and the measured error of the
// conventional B-term synopsis built by CON (upper).

// localToGlobal maps a sub-tree-local heap index (>= 1) to the global
// error-tree index, for a sub-tree rooted at global node root.
func localToGlobal(root, li int) int {
	l := wavelet.Level(li)
	return root<<uint(l) + (li - 1<<uint(l))
}

// DMHaarResult carries a distributed Problem 2 solution.
type DMHaarResult struct {
	Synopsis *synopsis.Synopsis
	Feasible bool
	Jobs     []mr.Metrics
}

// DMHaarSpace solves Problem 2 (error bound p.Epsilon, quantization
// p.Delta) with the layered distributed DP.
func DMHaarSpace(src Source, p dp.Params, cfg Config) (*DMHaarResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := src.N()
	if err := padCheck(n); err != nil {
		return nil, err
	}
	s, err := cfg.subtreeLeaves(n)
	if err != nil {
		return nil, err
	}
	h := wavelet.Log2(s)
	partition, err := errtree.Partition(n, h)
	if err != nil {
		return nil, err
	}
	eng := cfg.engine()
	result := &DMHaarResult{}
	algSpan := cfg.Trace.Child("dmhaar-space")
	defer algSpan.End()
	algSpan.SetFloat("epsilon", p.Epsilon)
	algSpan.SetInt("layers", int64(partition.NumLayers()))

	// ---- Bottom-up pass: one job per layer (Algorithm 1) ----
	// rowsByRoot[layer] maps each sub-tree root to its emitted M-row.
	rowsByRoot := make([]map[int]dp.Row, partition.NumLayers())
	for li, layer := range partition.Layers {
		below := map[int]dp.Row{}
		if li > 0 {
			below = rowsByRoot[li-1]
		}
		layerSpan := algSpan.Child(fmt.Sprintf("layer-up:%d", li))
		key := ""
		if cfg.Checkpoint != nil {
			key = layerKey(n, s, p.Epsilon, p.Delta, p.MaxWindow, li)
			body, ok, err := checkpointGet(cfg.Checkpoint, key)
			if err != nil {
				layerSpan.End()
				return nil, err
			}
			if ok {
				// Resume: replay the recorded M-rows, skipping the layer job.
				pairs, err := decodePairList(body)
				if err == nil {
					rowsByRoot[li], err = decodeLayerRows(pairs)
				}
				layerSpan.SetBool("checkpoint", true)
				layerSpan.End()
				if err != nil {
					return nil, err
				}
				continue
			}
		}
		switch act := chaos.Point(chaosLayer); act.Kind {
		case chaos.Fail:
			layerSpan.End()
			return nil, fmt.Errorf("dist: layer-up %d: %w", li, act.Err)
		case chaos.Delay:
			time.Sleep(act.Sleep)
		}
		job := layerUpJob(src, p, n, li, layer, below)
		res, err := runJob(eng, job, layerSpan)
		if err != nil {
			layerSpan.End()
			return nil, err
		}
		result.Jobs = append(result.Jobs, res.Metrics)
		rows, err := decodeLayerRows(res.Partitions[0])
		if err != nil {
			layerSpan.End()
			return nil, err
		}
		var rowBytes int64
		for _, kv := range res.Partitions[0] {
			obsLayerRowBytes.Observe(int64(len(kv.Value)))
			rowBytes += int64(len(kv.Value))
		}
		if key != "" {
			if err := checkpointPut(cfg.Checkpoint, key, appendPairList(nil, res.Partitions[0])); err != nil {
				layerSpan.End()
				return nil, err
			}
		}
		rowsByRoot[li] = rows
		obsLayerRows.Observe(int64(len(rows)))
		layerSpan.SetInt("rows", int64(len(rows)))
		layerSpan.SetInt("row_bytes", rowBytes)
		layerSpan.End()
	}
	top := partition.Layers[partition.NumLayers()-1]
	rootRow, ok := rowsByRoot[partition.NumLayers()-1][top[0].Root]
	if !ok {
		return nil, fmt.Errorf("dist: top sub-tree produced no row")
	}
	rootChoice := dp.FinishRoot(rootRow, p)
	if !rootChoice.Feasible {
		return result, nil
	}

	// ---- Top-down pass: re-enter each sub-problem (Section 4) ----
	syn := synopsis.New(n)
	if rootChoice.C0Grid != 0 {
		syn.Terms = append(syn.Terms, synopsis.Coefficient{Index: 0, Value: p.Value(rootChoice.C0Grid)})
	}
	incoming := map[int]int{top[0].Root: rootChoice.C0Grid}
	for li := partition.NumLayers() - 1; li >= 0; li-- {
		below := map[int]dp.Row{}
		if li > 0 {
			below = rowsByRoot[li-1]
		}
		layerSpan := algSpan.Child(fmt.Sprintf("layer-down:%d", li))
		job, collect := layerDownJob(src, p, n, li, partition.Layers[li], below, incoming)
		res, err := runJob(eng, job, layerSpan)
		layerSpan.End()
		if err != nil {
			return nil, err
		}
		result.Jobs = append(result.Jobs, res.Metrics)
		next, terms, err := collect(res)
		if err != nil {
			return nil, err
		}
		syn.Terms = append(syn.Terms, terms...)
		incoming = next
	}
	syn.Normalize()
	result.Synopsis = syn
	result.Feasible = true
	return result, nil
}

// decodeLayerRows decodes one layer's shuffle output (root key, varint
// M-row value) into the rows map — shared by the fresh-run and
// checkpoint-replay paths so both produce identical state.
func decodeLayerRows(pairs []mr.Pair) (map[int]dp.Row, error) {
	rows := make(map[int]dp.Row, len(pairs))
	for _, kv := range pairs {
		list, err := decodeRowList(kv.Value)
		if err != nil {
			return nil, err
		}
		if len(list) != 1 {
			return nil, fmt.Errorf("dist: layer row record holds %d rows, want 1", len(list))
		}
		rows[int(mr.DecodeUint64(kv.Key))] = list[0]
	}
	return rows, nil
}

// subtreeLeafRows builds the leaf rows of one sub-tree: data leaves for the
// bottom layer, child M-rows above.
func subtreeLeafRows(src Source, p dp.Params, n, layerIdx int, st errtree.Subtree, below map[int]dp.Row) ([]dp.Row, error) {
	childRoots := st.ChildRoots(nil)
	leaves := make([]dp.Row, len(childRoots))
	if layerIdx == 0 {
		lo := childRoots[0] - n
		hi := childRoots[len(childRoots)-1] - n + 1
		data, err := src.Chunk(lo, hi)
		if err != nil {
			return nil, err
		}
		for i, c := range childRoots {
			leaves[i] = dp.LeafRow(data[c-n-lo], p)
		}
		return leaves, nil
	}
	for i, c := range childRoots {
		row, ok := below[c]
		if !ok {
			return nil, fmt.Errorf("dist: missing M-row for child root %d", c)
		}
		leaves[i] = row
	}
	return leaves, nil
}

// layerUpJob builds the bottom-up job of one layer: solve each sub-tree,
// emit the local root's M-row.
func layerUpJob(src Source, p dp.Params, n, layerIdx int, layer []errtree.Subtree, below map[int]dp.Row) *mr.Job {
	return &mr.Job{
		Name:   fmt.Sprintf("dmhaar-up-layer%d", layerIdx),
		Splits: indexSplits(len(layer)),
		Map: func(ctx mr.TaskContext, split mr.Split, emit mr.Emit) error {
			idx, err := chunkIndex(split)
			if err != nil {
				return err
			}
			st := layer[idx]
			leaves, err := subtreeLeafRows(src, p, n, layerIdx, st, below)
			if err != nil {
				return err
			}
			rows, err := dp.SolveTree(leaves, p)
			if err != nil {
				return err
			}
			return emit(mr.EncodeUint64(uint64(st.Root)), appendRowList(nil, rows[1:2]))
		},
		Reducers: 1,
	}
}

// downMsg carries one sub-tree's top-down output: the coefficients it
// retains and the incoming grid values for the sub-trees below it.
type downMsg struct {
	Terms        []synopsis.Coefficient
	ChildRoots   []int
	ChildincomeG []int
}

// layerDownJob builds the top-down job of one layer and a collector that
// extracts the next layer's incoming values and the retained terms.
func layerDownJob(src Source, p dp.Params, n, layerIdx int, layer []errtree.Subtree, below map[int]dp.Row, incoming map[int]int) (*mr.Job, func(*mr.Result) (map[int]int, []synopsis.Coefficient, error)) {
	job := &mr.Job{
		Name:   fmt.Sprintf("dmhaar-down-layer%d", layerIdx),
		Splits: indexSplits(len(layer)),
		Map: func(ctx mr.TaskContext, split mr.Split, emit mr.Emit) error {
			idx, err := chunkIndex(split)
			if err != nil {
				return err
			}
			st := layer[idx]
			g, ok := incoming[st.Root]
			if !ok {
				return fmt.Errorf("dist: no incoming value for sub-tree root %d", st.Root)
			}
			leaves, err := subtreeLeafRows(src, p, n, layerIdx, st, below)
			if err != nil {
				return err
			}
			rows, err := dp.SolveTree(leaves, p)
			if err != nil {
				return err
			}
			msg := downMsg{}
			childRoots := st.ChildRoots(nil)
			dp.CollectChoices(rows, g, func(local int, z int32) {
				msg.Terms = append(msg.Terms, synopsis.Coefficient{
					Index: localToGlobal(st.Root, local),
					Value: p.Value(int(z)),
				})
			}, func(leafPos, lg int) {
				if layerIdx > 0 {
					msg.ChildRoots = append(msg.ChildRoots, childRoots[leafPos])
					msg.ChildincomeG = append(msg.ChildincomeG, lg)
				}
			})
			return emit(mr.EncodeUint64(uint64(st.Root)), mr.MustGobEncode(msg))
		},
		Reducers: 1,
	}
	collect := func(res *mr.Result) (map[int]int, []synopsis.Coefficient, error) {
		next := map[int]int{}
		var terms []synopsis.Coefficient
		for _, kv := range res.Partitions[0] {
			var msg downMsg
			if err := mr.GobDecode(kv.Value, &msg); err != nil {
				return nil, nil, err
			}
			terms = append(terms, msg.Terms...)
			for i, c := range msg.ChildRoots {
				next[c] = msg.ChildincomeG[i]
			}
		}
		return next, terms, nil
	}
	return job, collect
}

// dmProber adapts DMHaarSpace to the binary-search driver.
type dmProber struct {
	src  Source
	cfg  Config
	span *obs.Span
	jobs *[]mr.Metrics
}

// Probe implements dp.Prober. With a checkpoint store configured, each
// probe's verdict (feasibility + synopsis) is recorded under a key derived
// from the probed epsilon; a restarted search replays recorded verdicts
// without re-running their layer jobs — and without counting them in
// dist_probes_total, so resume tests can assert the saved work.
func (d dmProber) Probe(epsilon float64) (*synopsis.Synopsis, bool, error) {
	cfg := d.cfg
	key := ""
	if cfg.Checkpoint != nil {
		n := d.src.N()
		s, err := cfg.subtreeLeaves(n)
		if err != nil {
			return nil, false, err
		}
		delta := cfg.Delta
		if delta <= 0 {
			delta = 1
		}
		key = probeKey(n, s, delta, epsilon, cfg.MaxWindow)
		body, ok, err := checkpointGet(cfg.Checkpoint, key)
		if err != nil {
			return nil, false, err
		}
		if ok {
			return decodeProbeRecord(body)
		}
	}
	switch act := chaos.Point(chaosProbe); act.Kind {
	case chaos.Fail:
		return nil, false, fmt.Errorf("dist: probe eps=%g: %w", epsilon, act.Err)
	case chaos.Delay:
		time.Sleep(act.Sleep)
	}
	obsProbes.Inc()
	if d.span != nil {
		probe := d.span.Child(fmt.Sprintf("probe:eps=%g", epsilon))
		defer probe.End()
		cfg.Trace = probe
	}
	res, err := DMHaarSpace(d.src, dp.Params{Epsilon: epsilon, Delta: cfg.Delta, MaxWindow: cfg.MaxWindow}, cfg)
	if err != nil {
		return nil, false, err
	}
	*d.jobs = append(*d.jobs, res.Jobs...)
	if key != "" {
		if err := checkpointPut(cfg.Checkpoint, key, encodeProbeRecord(res.Synopsis, res.Feasible)); err != nil {
			return nil, false, err
		}
	}
	if !res.Feasible {
		return nil, false, nil
	}
	return res.Synopsis, true, nil
}

// DIndirectHaar answers Problem 1 distributively: binary search over the
// error bound with DMHaarSpace probes (Algorithm 2). cfg.Delta is the
// quantization step δ (0 defaults to 1).
func DIndirectHaar(src Source, budget int, cfg Config) (*Report, error) {
	n := src.N()
	if err := padCheck(n); err != nil {
		return nil, err
	}
	if budget < 1 {
		return nil, fmt.Errorf("dist: budget %d < 1", budget)
	}
	if cfg.Delta <= 0 {
		cfg.Delta = 1
	}
	if cfg.Reducers == 0 {
		cfg.Reducers = 1 // the paper uses one reducer for DIndirectHaar
	}
	s, err := cfg.subtreeLeaves(n)
	if err != nil {
		return nil, err
	}
	eng := cfg.engine()
	report := &Report{}
	algSpan := cfg.Trace.Child("dindirect-haar")
	defer algSpan.End()
	algSpan.SetInt("budget", int64(budget))
	cfg.Trace = algSpan

	// Lower bound e_l: the (B+1)-largest |coefficient| (one job; each
	// mapper pre-selects its local top B+1, the driver adds the root
	// sub-tree from the chunk means).
	boundsSpan := algSpan.Child("bounds")
	eLow, _, lowMetrics, err := kthCoefficientJob(src, budget+1, s, eng, boundsSpan)
	if err != nil {
		boundsSpan.End()
		return nil, err
	}
	report.Jobs = append(report.Jobs, lowMetrics)

	// Upper bound e_u: measured error of the conventional synopsis (CON +
	// evaluation job).
	boundsCfg := cfg
	boundsCfg.Trace = boundsSpan
	conRep, err := CON(src, budget, boundsCfg)
	if err != nil {
		boundsSpan.End()
		return nil, err
	}
	report.Jobs = append(report.Jobs, conRep.Jobs...)
	eHigh, evalMetrics, err := evaluateMax(src, conRep.Synopsis, s, eng, 0, boundsSpan)
	boundsSpan.End()
	if err != nil {
		return nil, err
	}
	report.Jobs = append(report.Jobs, evalMetrics)

	env := dp.SearchEnv{
		ELow:    eLow,
		EHigh:   eHigh,
		Initial: conRep.Synopsis,
		Eval: func(syn *synopsis.Synopsis) (float64, error) {
			e, m, err := evaluateMax(src, syn, s, eng, 0, algSpan)
			if err != nil {
				return 0, err
			}
			report.Jobs = append(report.Jobs, m)
			return e, nil
		},
	}
	res, err := dp.SearchWithEnv(dmProber{src: src, cfg: cfg, span: algSpan, jobs: &report.Jobs}, env, budget, cfg.Delta)
	if err != nil {
		return nil, err
	}
	report.Synopsis = res.Synopsis
	report.MaxErr = res.MaxAbs
	return report, nil
}

// kthCoefficientJob finds the k-th largest coefficient magnitude with one
// job: each mapper emits its chunk's top-k local detail magnitudes, the
// driver merges them with the root sub-tree's coefficients.
func kthCoefficientJob(src Source, k, s int, eng mr.Engine, parent *obs.Span) (float64, []float64, mr.Metrics, error) {
	n := src.N()
	job := &mr.Job{
		Name:   "top-coefficients",
		Splits: chunkSplits(n, s),
		Map: func(ctx mr.TaskContext, split mr.Split, emit mr.Emit) error {
			idx, err := chunkIndex(split)
			if err != nil {
				return err
			}
			chunk, err := src.Chunk(idx*s, (idx+1)*s)
			if err != nil {
				return err
			}
			details, avg, err := wavelet.LocalTransform(chunk)
			if err != nil {
				return err
			}
			if err := emit([]byte{0}, mr.MustGobEncode([2]float64{float64(idx), avg})); err != nil {
				return err
			}
			mags := make([]float64, 0, len(details)-1)
			for _, c := range details[1:] {
				mags = append(mags, math.Abs(c))
			}
			sort.Sort(sort.Reverse(sort.Float64Slice(mags)))
			if len(mags) > k {
				mags = mags[:k]
			}
			return emit([]byte{1}, mr.MustGobEncode(mags))
		},
		Reducers: 1,
	}
	res, err := runJob(eng, job, parent)
	if err != nil {
		return 0, nil, mr.Metrics{}, err
	}
	means := make([]float64, n/s)
	var all []float64
	for _, kv := range res.Partitions[0] {
		if kv.Key[0] == 0 {
			var rec [2]float64
			if err := mr.GobDecode(kv.Value, &rec); err != nil {
				return 0, nil, res.Metrics, err
			}
			means[int(rec[0])] = rec[1]
			continue
		}
		var mags []float64
		if err := mr.GobDecode(kv.Value, &mags); err != nil {
			return 0, nil, res.Metrics, err
		}
		all = append(all, mags...)
	}
	rootCoef, err := wavelet.Transform(means)
	if err != nil {
		return 0, nil, res.Metrics, err
	}
	for _, c := range rootCoef {
		all = append(all, math.Abs(c))
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(all)))
	if k > len(all) {
		return 0, means, res.Metrics, nil
	}
	return all[k-1], means, res.Metrics, nil
}
