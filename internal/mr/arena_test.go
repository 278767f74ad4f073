package mr

import (
	"bytes"
	"reflect"
	"testing"
)

// The scratch-reuse contract: engine emit paths copy key and value, so a
// map or reduce function may overwrite its buffers right after emit
// returns. These tests drive every engine through a job that aggressively
// reuses (and clobbers) one scratch buffer per record — any emit path
// that stores the caller's slice instead of copying produces garbled
// keys and fails the comparison with the fresh-allocation reference.

// scratchReuseJob emits perSplit counters per split, every emit through
// the same scratch buffers, which are deliberately clobbered after use.
func scratchReuseJob(splits, perSplit int) *Job {
	sp := make([]Split, splits)
	for i := range sp {
		sp[i] = Split{ID: i}
	}
	return &Job{
		Name:   "scratch-reuse",
		Splits: sp,
		Map: func(ctx TaskContext, split Split, emit Emit) error {
			kbuf := make([]byte, 0, 16)
			vbuf := make([]byte, 0, 8)
			for r := 0; r < perSplit; r++ {
				kbuf = AppendUint64(kbuf[:0], uint64(r%64))
				vbuf = AppendUint64(vbuf[:0], 1)
				if err := emit(kbuf, vbuf); err != nil {
					return err
				}
				// Clobber the scratch: if the engine kept a reference, the
				// shuffle now sees 0xFF garbage instead of the key.
				for i := range kbuf {
					kbuf[i] = 0xFF
				}
				for i := range vbuf {
					vbuf[i] = 0xFF
				}
			}
			return nil
		},
		Reduce: func(ctx TaskContext, key []byte, values [][]byte, emit Emit) error {
			var sum uint64
			for _, v := range values {
				sum += DecodeUint64(v)
			}
			kbuf := append(make([]byte, 0, 8), key...)
			vbuf := AppendUint64(nil, sum)
			if err := emit(kbuf, vbuf); err != nil {
				return err
			}
			for i := range kbuf {
				kbuf[i] = 0xFF
			}
			for i := range vbuf {
				vbuf[i] = 0xFF
			}
			return nil
		},
		Reducers: 3,
	}
}

func scratchReuseWant(splits, perSplit int) map[string]uint64 {
	want := map[string]uint64{}
	for i := 0; i < splits; i++ {
		for r := 0; r < perSplit; r++ {
			want[string(EncodeUint64(uint64(r%64)))] += 1
		}
	}
	return want
}

func checkScratchReuse(t *testing.T, res *Result, splits, perSplit int) {
	t.Helper()
	want := scratchReuseWant(splits, perSplit)
	got := countsOf(res)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scratch reuse corrupted the shuffle: got %d keys, want %d", len(got), len(want))
	}
}

func TestEmitCopiesLocal(t *testing.T) {
	res, err := (&Local{}).Run(scratchReuseJob(4, 500))
	if err != nil {
		t.Fatal(err)
	}
	checkScratchReuse(t, res, 4, 500)
}

func TestEmitCopiesLocalWithCombiner(t *testing.T) {
	job := scratchReuseJob(4, 500)
	job.Combine = job.Reduce
	res, err := (&Local{}).Run(job)
	if err != nil {
		t.Fatal(err)
	}
	checkScratchReuse(t, res, 4, 500)
}

func TestEmitCopiesSpill(t *testing.T) {
	eng := &Local{SpillThreshold: 64, SpillDir: t.TempDir()}
	res, err := eng.Run(scratchReuseJob(4, 500))
	if err != nil {
		t.Fatal(err)
	}
	checkScratchReuse(t, res, 4, 500)
	job := scratchReuseJob(4, 500)
	job.Combine = job.Reduce
	res, err = eng.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	checkScratchReuse(t, res, 4, 500)
}

func init() {
	RegisterJob("scratch-reuse-cluster", func(params []byte) (*Job, error) {
		return scratchReuseJob(4, 500), nil
	})
}

func TestEmitCopiesCluster(t *testing.T) {
	c := startCluster(t, 2)
	res, err := runRegistered(c, "scratch-reuse-cluster", nil)
	if err != nil {
		t.Fatal(err)
	}
	checkScratchReuse(t, res, 4, 500)
}

func TestByteArenaCopySemantics(t *testing.T) {
	var a byteArena
	if got := a.copyBytes(nil); got != nil {
		t.Fatalf("copyBytes(nil) = %v, want nil", got)
	}
	if got := a.copyBytes([]byte{}); got != nil {
		t.Fatalf("copyBytes(empty) = %v, want nil", got)
	}
	src := []byte{1, 2, 3}
	got := a.copyBytes(src)
	src[0] = 99
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("arena copy aliases the source: %v", got)
	}
	if cap(got) != len(got) {
		t.Fatalf("arena slice has spare capacity %d (len %d): appends would clobber neighbors", cap(got), len(got))
	}
	// Oversized items get dedicated storage and survive release.
	big := make([]byte, arenaBlockSize+1)
	big[0] = 7
	kept := a.copyBytes(big)
	a.release()
	if kept[0] != 7 {
		t.Fatal("oversized copy was recycled by release")
	}
}
