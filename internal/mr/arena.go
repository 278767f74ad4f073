package mr

import "sync"

// Shuffle allocation fast path. The seed engine paid one heap allocation
// per emitted key and per value; the collectors here copy records into
// contiguous arena blocks instead — one allocation per ~64 KiB of shuffle
// data — and recycle blocks through a sync.Pool at the points where no
// live Pair can still reference them (worker replies already serialized,
// spilled partitions already on disk, discarded attempts). Because emit
// copies, map and reduce functions may reuse one scratch buffer per task
// for key/value encoding (see the Append* codec helpers).

// arenaBlockSize is the arena block granularity. Items larger than a
// block get a dedicated, unpooled allocation.
const arenaBlockSize = 1 << 16

// blockPool recycles arena blocks (stored as *[]byte so Put does not
// allocate). New firing means a pool miss — the gets/allocs counter pair
// measures the recycle hit rate.
var blockPool = sync.Pool{
	New: func() interface{} {
		obsArenaBlockAllocs.Inc()
		b := make([]byte, 0, arenaBlockSize)
		return &b
	},
}

// byteArena allocates byte slices out of pooled contiguous blocks. Not
// safe for concurrent use; each task owns its own arena.
type byteArena struct {
	cur    []byte    // current block, len = bytes used
	blocks []*[]byte // pool-owned blocks, retained for release
}

// copyBytes copies b into the arena and returns a stable full-capacity
// slice. Empty input returns nil so both engines produce identical
// results for zero-length keys/values.
func (a *byteArena) copyBytes(b []byte) []byte {
	n := len(b)
	if n == 0 {
		return nil
	}
	if cap(a.cur)-len(a.cur) < n {
		if n >= arenaBlockSize {
			// Dedicated block: never pooled, so release cannot recycle
			// memory that outsized records still reference.
			out := make([]byte, n)
			copy(out, b)
			return out
		}
		obsArenaBlockGets.Inc()
		bp := blockPool.Get().(*[]byte)
		a.blocks = append(a.blocks, bp)
		a.cur = (*bp)[:0]
	}
	off := len(a.cur)
	a.cur = a.cur[:off+n]
	copy(a.cur[off:], b)
	return a.cur[off : off+n : off+n]
}

// release returns every block to the pool. The caller must guarantee no
// slice handed out by copyBytes is referenced afterwards.
func (a *byteArena) release() {
	for _, bp := range a.blocks {
		*bp = (*bp)[:0]
		blockPool.Put(bp)
	}
	a.blocks, a.cur = nil, nil
}

// reset recycles the arena for reuse by the same owner: all blocks but
// the current one go back to the pool and the current block rewinds.
// Same safety contract as release.
func (a *byteArena) reset() {
	if len(a.blocks) == 0 {
		return
	}
	last := a.blocks[len(a.blocks)-1]
	for _, bp := range a.blocks[:len(a.blocks)-1] {
		*bp = (*bp)[:0]
		blockPool.Put(bp)
	}
	a.blocks = append(a.blocks[:0], last)
	a.cur = (*last)[:0]
}

// mapCollector is the fast-path emit sink for map tasks: records are
// copied into the arena and appended to per-partition Pair batches.
type mapCollector struct {
	job   *Job
	arena byteArena
	parts [][]Pair
}

func newMapCollector(job *Job, nred int) *mapCollector {
	return &mapCollector{job: job, parts: make([][]Pair, nred)}
}

func (mc *mapCollector) emit(key, value []byte) error {
	p := mc.job.partition(key)
	mc.parts[p] = append(mc.parts[p], Pair{Key: mc.arena.copyBytes(key), Value: mc.arena.copyBytes(value)})
	return nil
}

// emitInto returns an Emit that copies records into arena and appends to
// *out — the sink for combiner and reducer output.
func emitInto(arena *byteArena, out *[]Pair) Emit {
	return func(key, value []byte) error {
		*out = append(*out, Pair{Key: arena.copyBytes(key), Value: arena.copyBytes(value)})
		return nil
	}
}

// pairBufPool recycles the scratch Pair slices of the radix sort.
var pairBufPool sync.Pool

func getPairBuf(n int) []Pair {
	if v := pairBufPool.Get(); v != nil {
		if buf := *(v.(*[]Pair)); cap(buf) >= n {
			return buf[:n]
		}
	}
	return make([]Pair, n)
}

// putPairBuf clears buf (so pooled headers cannot pin shuffle data) and
// returns it to the pool.
func putPairBuf(buf []Pair) {
	clear(buf)
	pairBufPool.Put(&buf)
}

// byteBufPool recycles wire-codec scratch buffers.
var byteBufPool sync.Pool

func getByteBuf() []byte {
	if v := byteBufPool.Get(); v != nil {
		return (*(v.(*[]byte)))[:0]
	}
	return make([]byte, 0, 4096)
}

func putByteBuf(buf []byte) {
	byteBufPool.Put(&buf)
}
