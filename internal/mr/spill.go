package mr

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// External shuffle: when a map task's output exceeds a record threshold,
// the engine sorts and spills runs to disk and the reduce side streams a
// k-way merge over them — the classic Hadoop sort-spill-merge pipeline.
// This keeps the substrate honest about the paper's setting, where inputs
// exceed worker memory and "excessive disk accesses" (Section 3) are the
// cost being engineered around.
//
// Run file format: repeated records of
//
//	uvarint keyLen | key | uvarint valueLen | value
//
// Each run is sorted by the job's comparator with arrival order preserved
// among equal keys; the merge breaks ties by (map task, run, position) so
// spilled and in-memory executions produce byte-identical results for
// associative combiners.

// spillRun is one sorted run on disk.
type spillRun struct {
	path    string
	records int
}

// mapOutput is one map task's committed output: per reduce partition, an
// in-memory tail plus zero or more spilled runs.
type mapOutput struct {
	mem  [][]Pair
	runs [][]spillRun
}

// spillCollector accumulates map output, spilling partitions that exceed
// the threshold. Records are copied into one arena per partition, so a
// spilled partition's memory recycles as soon as its run is on disk.
type spillCollector struct {
	job       *Job
	ctx       TaskContext // the map attempt's, handed to the combiner
	dir       string
	threshold int
	out       mapOutput
	arenas    []byteArena
	spilled   int64 // bytes written to disk
}

func newSpillCollector(job *Job, ctx TaskContext, dir string, threshold, nred int) (*spillCollector, error) {
	taskDir, err := os.MkdirTemp(dir, "spill-")
	if err != nil {
		return nil, err
	}
	return &spillCollector{
		job:       job,
		ctx:       ctx,
		dir:       taskDir,
		threshold: threshold,
		out: mapOutput{
			mem:  make([][]Pair, nred),
			runs: make([][]spillRun, nred),
		},
		arenas: make([]byteArena, nred),
	}, nil
}

func (c *spillCollector) emit(key, value []byte) error {
	p := c.job.partition(key)
	c.out.mem[p] = append(c.out.mem[p], Pair{Key: c.arenas[p].copyBytes(key), Value: c.arenas[p].copyBytes(value)})
	if len(c.out.mem[p]) >= c.threshold {
		return c.spill(p)
	}
	return nil
}

// spill sorts (and optionally combines) partition p's buffer and writes it
// as a run. Once the run is on disk nothing references the partition's
// arena any more, so its blocks recycle.
func (c *spillCollector) spill(p int) error {
	pairs := c.out.mem[p]
	if len(pairs) == 0 {
		return nil
	}
	sortPairs(c.job, pairs)
	if c.job.Combine != nil {
		combined, err := combineSorted(c.job, c.ctx, &c.arenas[p], pairs)
		if err != nil {
			return err
		}
		pairs = combined
	}
	path := filepath.Join(c.dir, fmt.Sprintf("run-%d-%d", p, len(c.out.runs[p])))
	n, err := writeRun(path, pairs)
	if err != nil {
		return err
	}
	c.spilled += n
	c.out.runs[p] = append(c.out.runs[p], spillRun{path: path, records: len(pairs)})
	c.out.mem[p] = nil
	c.arenas[p].reset()
	return nil
}

// finish spills any remaining buffers (keeping them in memory when no run
// exists yet, to avoid I/O for small tasks) and returns the output.
func (c *spillCollector) finish() (mapOutput, error) {
	for p := range c.out.mem {
		if len(c.out.runs[p]) > 0 && len(c.out.mem[p]) > 0 {
			if err := c.spill(p); err != nil {
				return mapOutput{}, err
			}
			continue
		}
		// Purely in-memory partition: sort (and combine) now so the merge
		// can treat it as a run. The arena stays live — the merge reads
		// these pairs — and recycles on discard.
		pairs := c.out.mem[p]
		sortPairs(c.job, pairs)
		if c.job.Combine != nil && len(pairs) > 0 {
			combined, err := combineSorted(c.job, c.ctx, &c.arenas[p], pairs)
			if err != nil {
				return mapOutput{}, err
			}
			pairs = combined
		}
		c.out.mem[p] = pairs
	}
	return c.out, nil
}

// discard removes the collector's spill files and recycles its arenas
// (loser of a speculative race, a failed attempt, or end-of-job cleanup —
// callers must copy any output they keep out of the arenas first).
func (c *spillCollector) discard() {
	os.RemoveAll(c.dir)
	for i := range c.arenas {
		c.arenas[i].release()
	}
}

// writeRun writes pairs to path, returning bytes written.
func writeRun(path string, pairs []Pair) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	var written int64
	var buf [binary.MaxVarintLen64]byte
	for _, kv := range pairs {
		n := binary.PutUvarint(buf[:], uint64(len(kv.Key)))
		if _, err := bw.Write(buf[:n]); err != nil {
			f.Close()
			return written, err
		}
		if _, err := bw.Write(kv.Key); err != nil {
			f.Close()
			return written, err
		}
		n2 := binary.PutUvarint(buf[:], uint64(len(kv.Value)))
		if _, err := bw.Write(buf[:n2]); err != nil {
			f.Close()
			return written, err
		}
		if _, err := bw.Write(kv.Value); err != nil {
			f.Close()
			return written, err
		}
		written += int64(n + len(kv.Key) + n2 + len(kv.Value))
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return written, err
	}
	return written, f.Close()
}

// runReader streams one sorted source (a disk run or an in-memory slice).
type runReader struct {
	// disk
	f  *os.File
	br *bufio.Reader
	// memory
	mem []Pair
	pos int

	cur  Pair
	done bool
}

func openRunReader(run spillRun) (*runReader, error) {
	f, err := os.Open(run.path)
	if err != nil {
		return nil, err
	}
	r := &runReader{f: f, br: bufio.NewReaderSize(f, 1<<16)}
	return r, r.advance()
}

func memRunReader(pairs []Pair) *runReader {
	r := &runReader{mem: pairs}
	r.advance()
	return r
}

// advance loads the next pair into cur; sets done at the end.
func (r *runReader) advance() error {
	if r.mem != nil || r.f == nil {
		if r.pos >= len(r.mem) {
			r.done = true
			return nil
		}
		r.cur = r.mem[r.pos]
		r.pos++
		return nil
	}
	klen, err := binary.ReadUvarint(r.br)
	if err == io.EOF {
		r.done = true
		r.f.Close()
		return nil
	}
	if err != nil {
		r.f.Close()
		return err
	}
	key := make([]byte, klen)
	if _, err := io.ReadFull(r.br, key); err != nil {
		r.f.Close()
		return err
	}
	vlen, err := binary.ReadUvarint(r.br)
	if err != nil {
		r.f.Close()
		return err
	}
	value := make([]byte, vlen)
	if _, err := io.ReadFull(r.br, value); err != nil {
		r.f.Close()
		return err
	}
	r.cur = Pair{Key: key, Value: value}
	return nil
}

// close releases the reader's file if still open.
func (r *runReader) close() {
	if r.f != nil {
		r.f.Close()
	}
}

// mergeStream is a k-way merge over sorted sources with deterministic
// tie-breaking by source order.
type mergeStream struct {
	job     *Job
	sources []*runReader
	heap    []int // indices into sources, heap-ordered
}

func newMergeStream(job *Job, sources []*runReader) *mergeStream {
	m := &mergeStream{job: job, sources: sources}
	for i, s := range sources {
		if !s.done {
			m.heap = append(m.heap, i)
		}
	}
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.down(i)
	}
	return m
}

func (m *mergeStream) less(a, b int) bool {
	sa, sb := m.sources[a], m.sources[b]
	if c := m.job.compare(sa.cur.Key, sb.cur.Key); c != 0 {
		return c < 0
	}
	return a < b // source order preserves arrival order for equal keys
}

func (m *mergeStream) down(i int) {
	n := len(m.heap)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && m.less(m.heap[l], m.heap[smallest]) {
			smallest = l
		}
		if r < n && m.less(m.heap[r], m.heap[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		m.heap[i], m.heap[smallest] = m.heap[smallest], m.heap[i]
		i = smallest
	}
}

// next returns the next pair in merged order.
func (m *mergeStream) next() (Pair, bool, error) {
	if len(m.heap) == 0 {
		return Pair{}, false, nil
	}
	src := m.heap[0]
	pair := m.sources[src].cur
	if err := m.sources[src].advance(); err != nil {
		return Pair{}, false, err
	}
	if m.sources[src].done {
		m.heap[0] = m.heap[len(m.heap)-1]
		m.heap = m.heap[:len(m.heap)-1]
	}
	if len(m.heap) > 0 {
		m.down(0)
	}
	return pair, true, nil
}
