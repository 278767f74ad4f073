// Package dwmaxerr builds Haar wavelet synopses under maximum-error
// metrics, reproducing "Distributed Wavelet Thresholding for Maximum Error
// Metrics" (Mytilinis, Tsoumakos, Koziris — SIGMOD 2016).
//
// A wavelet synopsis approximates a data vector with at most B retained
// wavelet coefficients. Unlike the conventional L2-optimal selection, the
// algorithms here minimize the maximum absolute or maximum relative
// reconstruction error of individual values, which yields per-value error
// guarantees for approximate query processing.
//
// The package exposes:
//
//   - the Haar transform and error-tree utilities (Transform, Inverse);
//   - centralized thresholding: GreedyAbs, GreedyRel (Karras & Mamoulis)
//     and IndirectHaar/MinHaarSpace (Karras, Sacharidis & Mamoulis);
//   - the paper's distributed algorithms — DGreedyAbs, DGreedyRel,
//     DIndirectHaar — running on a built-in MapReduce-style substrate
//     (in-process or across TCP workers);
//   - the conventional-synopsis baselines CON, Send-V, Send-Coef, H-WTopk;
//   - synopsis evaluation and O(log N) point/range query answering.
//
// Quickstart:
//
//	data := []float64{5, 5, 0, 26, 1, 3, 14, 2}
//	res, err := dwmaxerr.Build(data, dwmaxerr.GreedyAbs, dwmaxerr.Options{Budget: 4})
//	// res.Synopsis holds ≤ 4 coefficients; res.MaxErr bounds every value's error.
//	q := dwmaxerr.NewEvaluator(res.Synopsis)
//	approx := q.RangeSum(2, 5)
package dwmaxerr

import (
	"errors"
	"fmt"

	"dwmaxerr/internal/dataset"
	"dwmaxerr/internal/dist"
	"dwmaxerr/internal/dp"
	"dwmaxerr/internal/greedy"
	"dwmaxerr/internal/mr"
	"dwmaxerr/internal/obs"
	"dwmaxerr/internal/synopsis"
	"dwmaxerr/internal/wavelet"
)

// Tracer records a hierarchical span tree across a build; see NewTracer.
type Tracer = obs.Tracer

// Span is one node of a trace; pass a root span as Options.Trace to
// record the job/phase/task structure of a distributed build.
type Span = obs.Span

// NewTracer creates an empty tracer. Start a root span with Start, pass
// it through Options.Trace, then export with WriteChromeTraceFile.
func NewTracer() *Tracer { return obs.NewTracer() }

// Synopsis is a compact approximate representation of a data vector: the
// retained (coefficient index, value) pairs, all others implicitly zero.
type Synopsis = synopsis.Synopsis

// Coefficient is one retained synopsis term.
type Coefficient = synopsis.Coefficient

// Errors aggregates the L2, maximum-absolute and maximum-relative
// reconstruction errors of a synopsis (Equations 1–3 of the paper).
type Errors = synopsis.Errors

// Evaluator answers point and range-sum queries against a synopsis in
// O(log N) per query.
type Evaluator = synopsis.Evaluator

// Source provides chunked read access to a (possibly file-backed) dataset
// for the distributed algorithms.
type Source = dist.Source

// SliceSource adapts an in-memory vector to Source.
type SliceSource = dist.SliceSource

// FileSource adapts a binary float64 file to Source.
type FileSource = dist.FileSource

// Engine executes the distributed algorithms' jobs. The default is an
// in-process engine; an *mr.Coordinator (mr.NewCoordinator) is one too,
// running the same jobs on TCP and shared-memory workers — TCP workers
// need a FileSource, whose path they can open themselves.
type Engine = mr.Engine

// Algorithm selects a thresholding strategy for Build.
type Algorithm string

// The available algorithms.
const (
	// Conventional retains the B coefficients of greatest significance —
	// L2-optimal, no max-error guarantee (Section 2.3).
	Conventional Algorithm = "conventional"
	// GreedyAbs is the centralized greedy minimizing max absolute error.
	GreedyAbs Algorithm = "greedyabs"
	// GreedyRel is the centralized greedy minimizing max relative error.
	GreedyRel Algorithm = "greedyrel"
	// IndirectHaar is the centralized DP (binary search + MinHaarSpace).
	IndirectHaar Algorithm = "indirecthaar"
	// DGreedyAbs is the distributed greedy for max absolute error.
	DGreedyAbs Algorithm = "dgreedyabs"
	// DGreedyRel is the distributed greedy for max relative error.
	DGreedyRel Algorithm = "dgreedyrel"
	// DIndirectHaar is the distributed DP.
	DIndirectHaar Algorithm = "dindirecthaar"
	// CON builds the conventional synopsis in parallel (Appendix A.1).
	CON Algorithm = "con"
	// SendV builds the conventional synopsis with raw-value shipping.
	SendV Algorithm = "sendv"
	// SendCoef builds the conventional synopsis with partial-coefficient
	// shipping (Appendix A.3).
	SendCoef Algorithm = "sendcoef"
	// HWTopk builds the conventional synopsis with the three-round
	// distributed top-k protocol (Appendix A.4).
	HWTopk Algorithm = "hwtopk"
)

// Algorithms lists every supported algorithm name.
func Algorithms() []Algorithm {
	return []Algorithm{Conventional, GreedyAbs, GreedyRel, IndirectHaar,
		DGreedyAbs, DGreedyRel, DIndirectHaar, CON, SendV, SendCoef, HWTopk}
}

// ParseAlgorithm resolves a CLI-friendly name.
func ParseAlgorithm(name string) (Algorithm, error) {
	for _, a := range Algorithms() {
		if string(a) == name {
			return a, nil
		}
	}
	return "", fmt.Errorf("dwmaxerr: unknown algorithm %q (available: %v)", name, Algorithms())
}

// Options configures Build.
type Options struct {
	// Budget is the maximum number of retained coefficients B (required).
	Budget int
	// Sanity is the relative-error sanity bound S; 0 means 1.
	Sanity float64
	// Delta is the DP quantization step δ for the IndirectHaar family;
	// 0 means 1.
	Delta float64
	// SubtreeLeaves is the per-worker sub-tree size for the distributed
	// algorithms (a power of two); 0 picks a default.
	SubtreeLeaves int
	// Engine executes distributed jobs; nil means in-process.
	Engine Engine
	// Reducers overrides the number of reduce tasks; 0 means the default.
	Reducers int
	// Trace, when non-nil, receives one child span per distributed
	// algorithm run (with layer, probe and job sub-spans below it).
	Trace *Span
	// Checkpoint, when non-nil, records completed sub-results of the
	// distributed pipelines so a killed build resumes instead of
	// re-running. Scope one store to one dataset — keys encode the
	// problem shape, not the data. See NewFileCheckpoint.
	Checkpoint CheckpointStore
}

// CheckpointStore persists completed pipeline sub-results (DIndirectHaar
// probe verdicts and layer rows, the DGreedyAbs histogram) keyed by
// problem shape; pass one as Options.Checkpoint to make a build
// resumable across driver restarts.
type CheckpointStore = dist.CheckpointStore

// NewFileCheckpoint creates dir (if needed) and returns a file-backed
// CheckpointStore over it, one file per record, surviving process death.
func NewFileCheckpoint(dir string) (CheckpointStore, error) {
	return dist.NewFileCheckpoint(dir)
}

func (o Options) distConfig() dist.Config {
	return dist.Config{
		Engine:        o.Engine,
		SubtreeLeaves: o.SubtreeLeaves,
		Reducers:      o.Reducers,
		Delta:         o.Delta,
		Sanity:        o.Sanity,
		Trace:         o.Trace,
		Checkpoint:    o.Checkpoint,
	}
}

func (o Options) delta() float64 {
	if o.Delta > 0 {
		return o.Delta
	}
	return 1
}

func (o Options) sanity() float64 {
	if o.Sanity > 0 {
		return o.Sanity
	}
	return 1
}

// Result is the outcome of Build.
type Result struct {
	Synopsis *Synopsis
	// MaxErr is the achieved maximum error in the algorithm's metric
	// (absolute for *Abs/IndirectHaar, relative for *Rel). It is 0 for the
	// conventional algorithms, which offer no max-error guarantee; use
	// Evaluate to measure them.
	MaxErr float64
	// Jobs reports the MapReduce metrics of the distributed algorithms
	// (empty for centralized ones).
	Jobs []mr.Metrics
}

// ErrBudget is returned for non-positive budgets.
var ErrBudget = errors.New("dwmaxerr: Options.Budget must be >= 1")

// Build constructs a wavelet synopsis of data (length a power of two; see
// Pad) with the chosen algorithm.
func Build(data []float64, algo Algorithm, opt Options) (*Result, error) {
	if opt.Budget < 1 {
		return nil, ErrBudget
	}
	switch algo {
	case Conventional:
		w, err := wavelet.Transform(data)
		if err != nil {
			return nil, err
		}
		return &Result{Synopsis: synopsis.Conventional(w, opt.Budget)}, nil
	case GreedyAbs:
		s, e, err := greedy.SynopsisAbs(data, opt.Budget)
		if err != nil {
			return nil, err
		}
		return &Result{Synopsis: s, MaxErr: e}, nil
	case GreedyRel:
		s, e, err := greedy.SynopsisRel(data, opt.Budget, opt.sanity())
		if err != nil {
			return nil, err
		}
		return &Result{Synopsis: s, MaxErr: e}, nil
	case IndirectHaar:
		res, err := dp.IndirectHaar(data, opt.Budget, opt.delta())
		if err != nil {
			return nil, err
		}
		return &Result{Synopsis: res.Synopsis, MaxErr: res.MaxAbs}, nil
	default:
		return BuildDistributed(SliceSource(data), algo, opt)
	}
}

// BuildDistributed constructs a synopsis over a Source with one of the
// distributed algorithms (DGreedyAbs, DGreedyRel, DIndirectHaar, CON,
// SendV, SendCoef, HWTopk).
func BuildDistributed(src Source, algo Algorithm, opt Options) (*Result, error) {
	if opt.Budget < 1 {
		return nil, ErrBudget
	}
	cfg := opt.distConfig()
	var rep *dist.Report
	var err error
	switch algo {
	case DGreedyAbs:
		rep, err = dist.DGreedyAbs(src, opt.Budget, cfg)
	case DGreedyRel:
		rep, err = dist.DGreedyRel(src, opt.Budget, cfg)
	case DIndirectHaar:
		rep, err = dist.DIndirectHaar(src, opt.Budget, cfg)
	case CON:
		rep, err = dist.CON(src, opt.Budget, cfg)
	case SendV:
		rep, err = dist.SendV(src, opt.Budget, cfg)
	case SendCoef:
		rep, err = dist.SendCoef(src, opt.Budget, 0, cfg)
	case HWTopk:
		rep, err = dist.HWTopk(src, opt.Budget, cfg)
	default:
		return nil, fmt.Errorf("dwmaxerr: algorithm %q is not distributed (use Build)", algo)
	}
	if err != nil {
		return nil, err
	}
	return &Result{Synopsis: rep.Synopsis, MaxErr: rep.MaxErr, Jobs: rep.Jobs}, nil
}

// Transform computes the Haar wavelet decomposition of data (length a
// power of two) in error-tree layout.
func Transform(data []float64) ([]float64, error) {
	return wavelet.Transform(data)
}

// Inverse reconstructs the data vector from a full coefficient vector.
func Inverse(w []float64) ([]float64, error) {
	return wavelet.Inverse(w)
}

// Pad extends data to the next power-of-two length by repeating the final
// value and returns the padded vector with the original length.
func Pad(data []float64) (padded []float64, originalLen int) {
	return dataset.PadToPowerOfTwo(data)
}

// Evaluate measures a synopsis against the original data with sanity bound
// sanity (0 means 1) for the relative metric.
func Evaluate(s *Synopsis, data []float64, sanity float64) (Errors, error) {
	return synopsis.Evaluate(s, data, sanity)
}

// NewEvaluator builds a query evaluator over a synopsis.
func NewEvaluator(s *Synopsis) *Evaluator {
	return synopsis.NewEvaluator(s)
}

// SolveErrorBound answers the dual Problem 2 centrally: the smallest
// synopsis (on the δ grid) whose maximum absolute error is at most epsilon.
// feasible is false when the grid admits no solution.
func SolveErrorBound(data []float64, epsilon, delta float64) (s *Synopsis, feasible bool, err error) {
	sol, ok, err := dp.MinHaarSpace(data, dp.Params{Epsilon: epsilon, Delta: delta})
	if err != nil || !ok {
		return nil, false, err
	}
	return sol.Synopsis, true, nil
}
