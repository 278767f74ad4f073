package dist

import (
	"fmt"
	"sort"

	"dwmaxerr/internal/mr"
	"dwmaxerr/internal/synopsis"
	"dwmaxerr/internal/wavelet"
)

// This file implements the parallel constructions of the conventional
// (L2-optimal) synopsis compared in Section 6.3 and Appendix A:
//
//   - CON (A.1): the paper's own algorithm. Locality-preserving chunks
//     aligned to error-tree sub-trees; each mapper computes its sub-tree's
//     coefficients with a local transform and emits them (plus the chunk
//     average); the reduce side builds the root sub-tree from the averages
//     and keeps the B coefficients of greatest significance.
//   - Send-V (A.2): effectively sequential — mappers forward raw values,
//     the reducer computes the whole transform centrally.
//   - Send-Coef (A.3): non-aligned blocks; every mapper walks each data
//     point's root path, emitting per-point partial contributions for
//     coefficients it cannot finish (Algorithm 7), which the reducer sums.
//
// All three produce exactly the same synopsis; they differ in computation
// and shuffle volume, which the metrics expose.

// coefPayload is the shuffled (index, value) record, carried on the wire
// by appendIdxVal/decodeIdxVal.
type coefPayload struct {
	Index int
	Value float64
}

// appendSigKey appends a coefficient's significance key so that
// bytes.Compare yields descending significance with ascending-index
// tie-breaks — the same total order synopsis.Conventional uses, so CON
// selects identical terms. The avg/detail flag sorts chunk averages ahead
// of everything. The index tie-break is a memcmp-ordered varint (wire
// v4), so ordering survives mixed encoded lengths. Append-style so map
// loops reuse one scratch buffer (emit copies).
func appendSigKey(dst []byte, kind byte, sig float64, idx int) []byte {
	dst = append(dst, kind)
	dst = mr.AppendFloat64(dst, -sig) // ascending -sig == descending sig
	return mr.AppendOrderedUvarint(dst, uint64(idx))
}

const (
	kindAverage byte = 0 // chunk averages: sort first
	kindCoef    byte = 1
)

// CON builds the conventional B-term synopsis with the paper's
// locality-preserving partitioning (Appendix A.1).
func CON(src Source, budget int, cfg Config) (*Report, error) {
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
	job, err := conFileJob.job(src, s)
	if err != nil {
		return nil, err
	}
	res, err := runJob(cfg.engine(), job, cfg.Trace)
	if err != nil {
		return nil, err
	}
	syn, err := selectConventional(res.Partitions[0], n, s, budget)
	if err != nil {
		return nil, err
	}
	return &Report{Synopsis: syn, Jobs: []mr.Metrics{res.Metrics}}, nil
}

// conJob builds the CON map job over aligned chunks of size s.
func conJob(src Source, n, s int) (*mr.Job, error) {
	if err := checkSubtree(n, s); err != nil {
		return nil, err
	}
	return &mr.Job{
		Name:   "con",
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
			// Both buffers are reused across emits: the engine copies.
			kbuf := make([]byte, 0, 18)
			vbuf := make([]byte, 0, 18)
			kbuf = appendSigKey(kbuf, kindAverage, float64(-idx), idx)
			vbuf = appendIdxVal(vbuf, idx, avg)
			if err := emit(kbuf, vbuf); err != nil {
				return err
			}
			for li := 1; li < len(details); li++ {
				if details[li] == 0 {
					continue
				}
				gi := wavelet.GlobalIndex(n, s, idx, li)
				sig := wavelet.SignificanceOrderValue(gi, details[li])
				kbuf = appendSigKey(kbuf[:0], kindCoef, sig, gi)
				vbuf = appendIdxVal(vbuf[:0], gi, details[li])
				if err := emit(kbuf, vbuf); err != nil {
					return err
				}
			}
			return nil
		},
		Reducers: 1,
	}, nil
}

// selectConventional consumes a partition sorted by (averages first,
// then coefficients by descending significance), rebuilds the root
// sub-tree from the chunk averages, and merges the two descending streams
// into the top-B selection — the reducer of Appendix A.1.
func selectConventional(pairs []mr.Pair, n, s, budget int) (*synopsis.Synopsis, error) {
	means := make([]float64, n/s)
	stream := make([]coefPayload, 0, len(pairs))
	for _, kv := range pairs {
		idx, val, err := decodeIdxVal(kv.Value)
		if err != nil {
			return nil, err
		}
		if len(kv.Key) > 0 && kv.Key[0] == kindAverage {
			means[idx] = val
		} else {
			stream = append(stream, coefPayload{Index: idx, Value: val})
		}
	}
	// Root sub-tree coefficients: the transform of the chunk means gives
	// exactly nodes 0..n/s-1 of the global tree.
	rootCoef, err := wavelet.Transform(means)
	if err != nil {
		return nil, err
	}
	type cand struct {
		idx int
		val float64
		sig float64
	}
	root := make([]cand, 0, len(rootCoef))
	for i, c := range rootCoef {
		if c != 0 {
			root = append(root, cand{i, c, wavelet.SignificanceOrderValue(i, c)})
		}
	}
	sort.Slice(root, func(i, j int) bool {
		if root[i].sig != root[j].sig {
			return root[i].sig > root[j].sig
		}
		return root[i].idx < root[j].idx
	})
	// Merge the root stream with the already-sorted coefficient stream.
	syn := synopsis.New(n)
	ri, si := 0, 0
	for syn.Terms = syn.Terms[:0]; len(syn.Terms) < budget && (ri < len(root) || si < len(stream)); {
		var takeRoot bool
		switch {
		case ri >= len(root):
			takeRoot = false
		case si >= len(stream):
			takeRoot = true
		default:
			ssig := wavelet.SignificanceOrderValue(stream[si].Index, stream[si].Value)
			takeRoot = root[ri].sig > ssig || (root[ri].sig == ssig && root[ri].idx < stream[si].Index)
		}
		if takeRoot {
			syn.Terms = append(syn.Terms, synopsis.Coefficient{Index: root[ri].idx, Value: root[ri].val})
			ri++
		} else {
			syn.Terms = append(syn.Terms, synopsis.Coefficient{Index: stream[si].Index, Value: stream[si].Value})
			si++
		}
	}
	syn.Normalize()
	return syn, nil
}

// SendV builds the conventional synopsis with the Send-V scheme of
// Appendix A.2: mappers forward their raw values and a single reducer
// computes the transform and selection centrally.
func SendV(src Source, budget int, cfg Config) (*Report, error) {
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
	job := &mr.Job{
		Name:   "send-v",
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
			// Ship the whole chunk as one record keyed by position.
			return emit(mr.EncodeUint64(uint64(idx*s)), mr.MustGobEncode(chunk))
		},
		Reducers: 1,
	}
	res, err := runJob(eng, job, cfg.Trace)
	if err != nil {
		return nil, err
	}
	data := make([]float64, n)
	for _, kv := range res.Partitions[0] {
		var chunk []float64
		if err := mr.GobDecode(kv.Value, &chunk); err != nil {
			return nil, err
		}
		copy(data[mr.DecodeUint64(kv.Key):], chunk)
	}
	w, err := wavelet.Transform(data)
	if err != nil {
		return nil, err
	}
	return &Report{Synopsis: synopsis.Conventional(w, budget), Jobs: []mr.Metrics{res.Metrics}}, nil
}

// SendCoef builds the conventional synopsis with the Send-Coef scheme of
// Appendix A.3 / Algorithm 7: blocks are not aligned to sub-trees, so each
// mapper emits fully-computed coefficients once and, for every coefficient
// it can only partially compute, one contribution per data point; the
// reducer sums partials per coefficient. BlockSize need not be a power of
// two; 0 derives a deliberately unaligned size from cfg.SubtreeLeaves.
func SendCoef(src Source, budget int, blockSize int, cfg Config) (*Report, error) {
	n := src.N()
	if err := padCheck(n); err != nil {
		return nil, err
	}
	if budget < 1 {
		return nil, fmt.Errorf("dist: budget %d < 1", budget)
	}
	if blockSize <= 0 {
		s, err := cfg.subtreeLeaves(n)
		if err != nil {
			return nil, err
		}
		blockSize = s + s/3 // mimic an HDFS block unaligned to the tree
		if blockSize > n {
			blockSize = n
		}
	}
	eng := cfg.engine()
	var splits []mr.Split
	type blockRange struct{ Lo, Hi int }
	for lo, id := 0, 0; lo < n; lo, id = lo+blockSize, id+1 {
		hi := lo + blockSize
		if hi > n {
			hi = n
		}
		splits = append(splits, mr.Split{ID: id, Payload: mr.MustGobEncode(blockRange{lo, hi})})
	}
	job := &mr.Job{
		Name:   "send-coef",
		Splits: splits,
		Map: func(ctx mr.TaskContext, split mr.Split, emit mr.Emit) error {
			var br blockRange
			if err := mr.GobDecode(split.Payload, &br); err != nil {
				return err
			}
			data, err := src.Chunk(br.Lo, br.Hi)
			if err != nil {
				return err
			}
			full := func(j int) bool {
				if j == 0 {
					return br.Lo == 0 && br.Hi == n
				}
				f, l := wavelet.CoefficientSupport(n, j)
				return f >= br.Lo && l <= br.Hi
			}
			partials := map[int]float64{}
			var kbuf, vbuf []byte // reused across emits: the engine copies
			for pos := br.Lo; pos < br.Hi; pos++ {
				d := data[pos-br.Lo]
				emitContribution := func(j int) error {
					c := wavelet.BasisCoefficient(n, j, pos, d)
					if full(j) {
						partials[j] += c
						return nil
					}
					// Algorithm 7 line 9: per-datapoint partials for
					// coefficients this block cannot finish.
					ctx.Counters.Add("sendcoef.partial_emissions", 1)
					kbuf = mr.AppendUint64(kbuf[:0], uint64(j))
					vbuf = mr.AppendFloat64(vbuf[:0], c)
					return emit(kbuf, vbuf)
				}
				if err := emitContribution(0); err != nil {
					return err
				}
				node := (n + pos) / 2
				for node >= 1 {
					if err := emitContribution(node); err != nil {
						return err
					}
					node /= 2
				}
			}
			keys := make([]int, 0, len(partials))
			for j := range partials {
				keys = append(keys, j)
			}
			sort.Ints(keys)
			ctx.Counters.Add("sendcoef.full_emissions", int64(len(keys)))
			for _, j := range keys {
				kbuf = mr.AppendUint64(kbuf[:0], uint64(j))
				vbuf = mr.AppendFloat64(vbuf[:0], partials[j])
				if err := emit(kbuf, vbuf); err != nil {
					return err
				}
			}
			return nil
		},
		Reduce: func(ctx mr.TaskContext, key []byte, values [][]byte, emit mr.Emit) error {
			var sum float64
			for _, v := range values {
				sum += mr.DecodeFloat64(v)
			}
			return emit(key, mr.EncodeFloat64(sum))
		},
		Reducers: 1,
	}
	res, err := runJob(eng, job, cfg.Trace)
	if err != nil {
		return nil, err
	}
	w := make([]float64, n)
	for _, kv := range res.Partitions[0] {
		w[mr.DecodeUint64(kv.Key)] = mr.DecodeFloat64(kv.Value)
	}
	return &Report{Synopsis: synopsis.Conventional(w, budget), Jobs: []mr.Metrics{res.Metrics}}, nil
}
