// Package dist implements the paper's distributed algorithms on top of the
// MapReduce-style substrate of package mr:
//
//   - DGreedyAbs / DGreedyRel (Section 5, Algorithms 3–6): root/base
//     sub-tree partitioning, speculative C_root sets, ErrHistGreedy
//     histogram emission, level-2 combineResults, and the synopsis
//     materialization job.
//   - DMHaarSpace and DIndirectHaar (Section 4, Algorithms 1–2): the
//     layered error-tree decomposition running the MinHaarSpace DP per
//     sub-tree, with M-rows of local roots as the only cross-layer
//     traffic, plus the top-down selection pass and the binary search.
//   - The conventional-synopsis baselines of Appendix A: CON (the paper's
//     locality-preserving partitioning), Send-V, Send-Coef, and H-WTopk.
//
// All algorithms consume a Source (the dataset) and a Config (engine,
// sub-tree size, knobs) and report the mr.Metrics of every job they ran so
// the experiment harness can reproduce the paper's runtime and
// communication figures.
package dist

import (
	"fmt"
	"math"
	"os"
	"time"

	"dwmaxerr/internal/mr"
	"dwmaxerr/internal/obs"
	"dwmaxerr/internal/synopsis"
	"dwmaxerr/internal/wavelet"
)

// Source provides read access to the input vector. Implementations must be
// safe for concurrent Chunk calls (map tasks run in parallel).
type Source interface {
	// N returns the total number of data values (a power of two).
	N() int
	// Chunk returns data[lo:hi). The returned slice must not be modified.
	Chunk(lo, hi int) ([]float64, error)
}

// SliceSource serves an in-memory vector.
type SliceSource []float64

// N implements Source.
func (s SliceSource) N() int { return len(s) }

// Chunk implements Source.
func (s SliceSource) Chunk(lo, hi int) ([]float64, error) {
	if lo < 0 || hi > len(s) || lo > hi {
		return nil, fmt.Errorf("dist: chunk [%d,%d) out of range of %d values", lo, hi, len(s))
	}
	return s[lo:hi], nil
}

// FileSource serves a binary little-endian float64 file (the HDFS stand-in
// for cluster workers, which share a filesystem path instead of HDFS
// blocks).
type FileSource struct {
	Path string
	Size int // number of float64 values in the file
}

// NewFileSource stats the file and returns a source over it.
func NewFileSource(path string) (*FileSource, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if fi.Size()%8 != 0 {
		return nil, fmt.Errorf("dist: %s is not a float64 binary file (size %d)", path, fi.Size())
	}
	return &FileSource{Path: path, Size: int(fi.Size() / 8)}, nil
}

// N implements Source.
func (f *FileSource) N() int { return f.Size }

// Chunk implements Source.
func (f *FileSource) Chunk(lo, hi int) ([]float64, error) {
	if lo < 0 || hi > f.Size || lo > hi {
		return nil, fmt.Errorf("dist: chunk [%d,%d) out of range of %d values", lo, hi, f.Size)
	}
	file, err := os.Open(f.Path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	if _, err := file.Seek(int64(lo)*8, 0); err != nil {
		return nil, err
	}
	buf := make([]byte, (hi-lo)*8)
	if _, err := readFull(file, buf); err != nil {
		return nil, err
	}
	out := make([]float64, hi-lo)
	for i := range out {
		out[i] = decodeF64(buf[8*i:])
	}
	return out, nil
}

func readFull(f *os.File, buf []byte) (int, error) {
	total := 0
	for total < len(buf) {
		n, err := f.Read(buf[total:])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

func decodeF64(b []byte) float64 {
	bits := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
	return math.Float64frombits(bits)
}

// Config tunes the distributed algorithms.
type Config struct {
	// Engine executes jobs; nil means a fresh in-process mr.Local.
	Engine mr.Engine
	// SubtreeLeaves is the number of data values per base sub-tree (the
	// per-worker problem size of Figures 3/4); it must be a power of two.
	// 0 picks min(n/2, 65536). The paper's default is 2^20.
	SubtreeLeaves int
	// Reducers is the number of level-2/reduce tasks (paper: 4 for
	// DGreedyAbs, 1 for DIndirectHaar). 0 means the per-algorithm default.
	Reducers int
	// BucketWidth is e_b, the error-bucket width of Algorithm 3. 0 derives
	// a width from the data scale.
	BucketWidth float64
	// Delta is the DP quantization step δ for DMHaarSpace/DIndirectHaar.
	Delta float64
	// MaxWindow caps the quantized incoming-value window of each DP row
	// (dp.Params.MaxWindow). 0 is exact — the full O(ε/δ) grid; a
	// positive cap bounds per-row memory and M-row wire size at the cost
	// of possibly retaining more coefficients.
	MaxWindow int
	// Sanity is the relative-error sanity bound S (DGreedyRel). 0 means 1.
	Sanity float64
	// Trace, when non-nil, receives one child span per algorithm run, with
	// per-layer / per-probe grouping spans and every mr job's span tree
	// below them. Nil disables tracing.
	Trace *obs.Span
	// Checkpoint, when non-nil, records each completed sub-result
	// (DIndirectHaar probe verdicts and layer rows, DGreedy histogram
	// output) so a restarted driver resumes the pipeline instead of
	// re-running it. The store must be scoped to one dataset — keys
	// encode the problem shape, not the data (see checkpoint.go).
	Checkpoint CheckpointStore
}

func (c Config) engine() mr.Engine {
	if c.Engine != nil {
		return c.Engine
	}
	return &mr.Local{}
}

func (c Config) subtreeLeaves(n int) (int, error) {
	s := c.SubtreeLeaves
	if s == 0 {
		s = 1 << 16
		if s > n/2 {
			s = n / 2
		}
	}
	return s, checkSubtree(n, s)
}

// checkSubtree validates a sub-tree size against the input length — on the
// driver, and again wherever a job is rebuilt from parameters.
func checkSubtree(n, s int) error {
	if s < 2 || !wavelet.IsPowerOfTwo(s) || s > n/2 {
		return fmt.Errorf("dist: sub-tree size %d invalid for n=%d (need power of two in [2, n/2])", s, n)
	}
	return nil
}

func (c Config) sanity() float64 {
	if c.Sanity > 0 {
		return c.Sanity
	}
	return 1
}

// Report collects what a distributed algorithm did: the produced synopsis,
// its measured maximum error, and per-job metrics.
type Report struct {
	Synopsis *synopsis.Synopsis
	MaxErr   float64
	Jobs     []mr.Metrics
}

// TotalShuffleBytes sums the shuffle volume over all jobs.
func (r *Report) TotalShuffleBytes() int64 {
	var total int64
	for _, j := range r.Jobs {
		total += j.ShuffleBytes
	}
	return total
}

// Makespan sums the simulated makespans of all jobs for the given slot
// counts — the "running time on a cluster with this many parallel tasks"
// series of Figures 5c/5d.
func (r *Report) Makespan(mapSlots, reduceSlots int) (total time.Duration) {
	for _, j := range r.Jobs {
		total += j.Makespan(mapSlots, reduceSlots)
	}
	return total
}

// chunkSplits builds one split per aligned chunk of size s over n values.
func chunkSplits(n, s int) []mr.Split {
	return indexSplits(n / s)
}

// indexSplits builds count splits whose payload is their index as a
// uvarint, decoded by chunkIndex.
func indexSplits(count int) []mr.Split {
	splits := make([]mr.Split, count)
	for i := range splits {
		splits[i] = mr.Split{ID: i, Payload: mr.AppendUvarint(nil, uint64(i))}
	}
	return splits
}

func chunkIndex(split mr.Split) (int, error) {
	idx, n := mr.Uvarint(split.Payload)
	if n <= 0 || n != len(split.Payload) {
		return 0, fmt.Errorf("dist: bad %d-byte chunk split payload", len(split.Payload))
	}
	return int(idx), nil
}

// ChunkMeans runs a map job computing the mean of every aligned chunk of
// size s — the input to the root sub-tree of both partitioning schemes.
func ChunkMeans(src Source, s int, eng mr.Engine) ([]float64, mr.Metrics, error) {
	return chunkMeans(src, s, eng, nil)
}

func chunkMeans(src Source, s int, eng mr.Engine, parent *obs.Span) ([]float64, mr.Metrics, error) {
	job, err := meansFileJob.job(src, s)
	if err != nil {
		return nil, mr.Metrics{}, err
	}
	res, err := runJob(eng, job, parent)
	if err != nil {
		return nil, mr.Metrics{}, err
	}
	means := make([]float64, src.N()/s)
	for _, kv := range res.Partitions[0] {
		means[mr.DecodeUint64(kv.Key)] = mr.DecodeFloat64(kv.Value)
	}
	return means, res.Metrics, nil
}

// chunkMeansJob builds the chunk-means job over aligned chunks of size s.
func chunkMeansJob(src Source, n, s int) (*mr.Job, error) {
	return &mr.Job{
		Name:   "chunk-means",
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
			var sum float64
			for _, v := range chunk {
				sum += v
			}
			ctx.Counters.Add("means.rows_read", int64(len(chunk)))
			return emit(mr.EncodeUint64(uint64(idx)), mr.EncodeFloat64(sum/float64(s)))
		},
		Reducers: 1,
	}, nil
}

// EvaluateMaxAbs measures the exact maximum absolute error of a synopsis
// with a parallel map job: each chunk reconstructs its values from the
// retained coefficients on its paths and reports a local maximum; the
// single reducer takes the global max.
func EvaluateMaxAbs(src Source, syn *synopsis.Synopsis, chunk int, eng mr.Engine) (float64, mr.Metrics, error) {
	return evaluateMax(src, syn, chunk, eng, 0, nil)
}

// EvaluateMaxRel measures the exact maximum relative error (Equation 3)
// with the sanity bound S, using the same parallel plan as EvaluateMaxAbs.
func EvaluateMaxRel(src Source, syn *synopsis.Synopsis, chunk int, eng mr.Engine, sanity float64) (float64, mr.Metrics, error) {
	if sanity <= 0 {
		sanity = 1
	}
	return evaluateMax(src, syn, chunk, eng, sanity, nil)
}

// evaluateMax runs the shared evaluation job; sanity == 0 selects the
// absolute metric, sanity > 0 the relative metric with that bound.
func evaluateMax(src Source, syn *synopsis.Synopsis, chunk int, eng mr.Engine, sanity float64, parent *obs.Span) (float64, mr.Metrics, error) {
	job, err := evalFileJob.job(src, evalParams{Chunk: chunk, N: syn.N, Terms: syn.Terms, Sanity: sanity})
	if err != nil {
		return 0, mr.Metrics{}, err
	}
	res, err := runJob(eng, job, parent)
	if err != nil {
		return 0, mr.Metrics{}, err
	}
	if len(res.Partitions[0]) != 1 {
		return 0, res.Metrics, fmt.Errorf("dist: evaluate job produced %d outputs", len(res.Partitions[0]))
	}
	return mr.DecodeFloat64(res.Partitions[0][0].Value), res.Metrics, nil
}

// evalParams parameterizes the evaluation job: the synopsis (N, Terms) to
// measure over chunks of Chunk values; Sanity 0 selects the absolute
// metric, > 0 the relative metric with that bound.
type evalParams struct {
	Chunk  int
	N      int
	Terms  []synopsis.Coefficient
	Sanity float64
}

// evaluateMaxJob builds the evaluation job.
func evaluateMaxJob(src Source, n int, p evalParams) (*mr.Job, error) {
	if p.N != n {
		return nil, fmt.Errorf("dist: synopsis over %d values, source has %d", p.N, n)
	}
	chunk, sanity := p.Chunk, p.Sanity
	syn := synopsis.New(n)
	syn.Terms = p.Terms
	terms := syn.Map()
	job := &mr.Job{
		Name:   "evaluate-maxabs",
		Splits: chunkSplits(n, chunk),
		Map: func(ctx mr.TaskContext, split mr.Split, emit mr.Emit) error {
			idx, err := chunkIndex(split)
			if err != nil {
				return err
			}
			data, err := src.Chunk(idx*chunk, (idx+1)*chunk)
			if err != nil {
				return err
			}
			// Incoming value shared by the whole chunk: sum of retained
			// coefficients on the path above the chunk's sub-tree root.
			root := n/chunk + idx
			incoming := terms[0]
			for node := root; node > 1; node /= 2 {
				if c, ok := terms[node/2]; ok {
					if node%2 == 0 {
						incoming += c
					} else {
						incoming -= c
					}
				}
			}
			// Local reconstruction of the chunk from retained local terms.
			local := make([]float64, chunk)
			for i := range local {
				local[i] = incoming
			}
			var apply func(node int, lo, hi int)
			apply = func(node, lo, hi int) {
				if hi-lo < 2 {
					return
				}
				mid := (lo + hi) / 2
				if c, ok := terms[node]; ok {
					for i := lo; i < mid; i++ {
						local[i] += c
					}
					for i := mid; i < hi; i++ {
						local[i] -= c
					}
				}
				apply(2*node, lo, mid)
				apply(2*node+1, mid, hi)
			}
			apply(root, 0, chunk)
			var maxErr float64
			for i, v := range local {
				d := math.Abs(v - data[i])
				if sanity > 0 {
					den := math.Abs(data[i])
					if den < sanity {
						den = sanity
					}
					d /= den
				}
				if d > maxErr {
					maxErr = d
				}
			}
			return emit([]byte("max"), mr.EncodeFloat64(maxErr))
		},
		Reduce: func(ctx mr.TaskContext, key []byte, values [][]byte, emit mr.Emit) error {
			var m float64
			for _, v := range values {
				if x := mr.DecodeFloat64(v); x > m {
					m = x
				}
			}
			return emit(key, mr.EncodeFloat64(m))
		},
		Reducers: 1,
	}
	return job, nil
}

// padCheck validates n is a power of two, returning a friendly error
// suggesting dataset.PadToPowerOfTwo.
func padCheck(n int) error {
	if !wavelet.IsPowerOfTwo(n) {
		return fmt.Errorf("dist: input length %d is not a power of two; pad with dataset.PadToPowerOfTwo: %w",
			n, wavelet.ErrNotPowerOfTwo)
	}
	return nil
}
