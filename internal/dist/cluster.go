package dist

import (
	"fmt"

	"dwmaxerr/internal/mr"
)

// Cluster execution. A job shipped to a TCP worker cannot carry Go
// closures, so every job that reads a file-backed dataset is registered by
// name in the mr registry and rebuilt on each node from self-describing
// parameters (the equivalent of distributing a job JAR); workers read their
// input from a shared filesystem path — the HDFS stand-in. The drivers do
// not care: they ask a fileJob for the *mr.Job over their Source and hand
// it to whatever Config.Engine is.

// fileJob is one registered job kind: build constructs the job over an
// opened source from its parameters P — on the driver and, through the
// registry, on every worker.
type fileJob[P any] struct {
	name  string
	build func(src Source, n int, p P) (*mr.Job, error)
}

// fileParams is a registered job's parameter blob: the dataset path every
// worker opens, then the job's own parameters.
type fileParams[P any] struct {
	Path string
	P    P
}

// newFileJob registers build under name.
func newFileJob[P any](name string, build func(src Source, n int, p P) (*mr.Job, error)) fileJob[P] {
	mr.RegisterJob(name, func(params []byte) (*mr.Job, error) {
		var fp fileParams[P]
		if err := mr.GobDecode(params, &fp); err != nil {
			return nil, fmt.Errorf("dist: bad %s params: %w", name, err)
		}
		src, err := NewFileSource(fp.Path)
		if err != nil {
			return nil, err
		}
		if err := padCheck(src.N()); err != nil {
			return nil, fmt.Errorf("dist: %s: %w", fp.Path, err)
		}
		return build(src, src.N(), fp.P)
	})
	return fileJob[P]{name: name, build: build}
}

// job returns the job over src. A *FileSource is named by a path any
// worker can open, so its job comes out of the registry carrying the
// (name, params) reference remote workers rebuild it from; any other source
// exists only in this process and gets the same job built in place,
// runnable wherever the driver's memory is shared.
func (fj fileJob[P]) job(src Source, p P) (*mr.Job, error) {
	if fs, ok := src.(*FileSource); ok {
		return mr.LookupJob(fj.name, mr.MustGobEncode(fileParams[P]{Path: fs.Path, P: p}))
	}
	return fj.build(src, src.N(), p)
}

// ConFileJobName is the registered name of the CON job.
const ConFileJobName = "dist/con-file"

// The registered jobs: CON, and the four jobs of the DGreedy pipeline.
var (
	conFileJob    = newFileJob(ConFileJobName, conJob)
	meansFileJob  = newFileJob("dist/chunk-means", chunkMeansJob)
	histFileJob   = newFileJob("dist/dgreedy-hist", dgreedyHistJob)
	selectFileJob = newFileJob("dist/dgreedy-select", dgreedySelectJob)
	evalFileJob   = newFileJob("dist/evaluate-maxabs", evaluateMaxJob)
)

// CONCluster builds the conventional synopsis of the dataset file at path
// on the coordinator's fleet: CON with c as the engine.
func CONCluster(c *mr.Coordinator, path string, budget, subtreeLeaves int) (*Report, error) {
	src, err := NewFileSource(path)
	if err != nil {
		return nil, err
	}
	return CON(src, budget, Config{Engine: c, SubtreeLeaves: subtreeLeaves})
}

// DGreedyAbsCluster runs DGreedyAbs over the dataset file at path on the
// coordinator's fleet. subtreeLeaves and bucketWidth follow Config
// semantics (bucketWidth 0 derives a width from the root run).
func DGreedyAbsCluster(c *mr.Coordinator, path string, budget, subtreeLeaves int, bucketWidth float64) (*Report, error) {
	return DGreedyAbsClusterWith(c, path, budget, Config{SubtreeLeaves: subtreeLeaves, BucketWidth: bucketWidth})
}

// DGreedyAbsClusterWith is DGreedyAbs with cfg.Engine set to c: every
// other Config field (Reducers, Trace, Checkpoint, …) means what it means
// on any engine.
func DGreedyAbsClusterWith(c *mr.Coordinator, path string, budget int, cfg Config) (*Report, error) {
	src, err := NewFileSource(path)
	if err != nil {
		return nil, err
	}
	cfg.Engine = c
	return DGreedyAbs(src, budget, cfg)
}
