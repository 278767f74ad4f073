package mr

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// wordCountJob builds the canonical test job: splits carry
// whitespace-separated words; the reducer sums counts per word.
func wordCountJob(texts []string, reducers int) *Job {
	splits := make([]Split, len(texts))
	for i, t := range texts {
		splits[i] = Split{ID: i, Payload: []byte(t)}
	}
	return &Job{
		Name:   "wordcount",
		Splits: splits,
		Map: func(ctx TaskContext, split Split, emit Emit) error {
			for _, w := range strings.Fields(string(split.Payload)) {
				if err := emit([]byte(w), EncodeUint64(1)); err != nil {
					return err
				}
			}
			return nil
		},
		Reduce: func(ctx TaskContext, key []byte, values [][]byte, emit Emit) error {
			var sum uint64
			for _, v := range values {
				sum += DecodeUint64(v)
			}
			return emit(key, EncodeUint64(sum))
		},
		Reducers: reducers,
	}
}

func countsOf(res *Result) map[string]uint64 {
	out := map[string]uint64{}
	for _, kv := range res.AllPairs() {
		out[string(kv.Key)] = DecodeUint64(kv.Value)
	}
	return out
}

func TestLocalWordCount(t *testing.T) {
	job := wordCountJob([]string{"a b a", "b c", "a"}, 3)
	res, err := (&Local{}).Run(job)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{"a": 3, "b": 2, "c": 1}
	if got := countsOf(res); !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	m := res.Metrics
	if m.MapTasks != 3 || m.ReduceTasks != 3 {
		t.Fatalf("metrics: %+v", m)
	}
	if m.ShuffleRecords != 6 {
		t.Fatalf("shuffle records = %d, want 6", m.ShuffleRecords)
	}
	if m.OutputRecords != 3 {
		t.Fatalf("output records = %d", m.OutputRecords)
	}
}

func TestLocalCombinerReducesShuffle(t *testing.T) {
	texts := []string{"x x x x", "x x"}
	base := wordCountJob(texts, 1)
	noCombine, err := (&Local{}).Run(base)
	if err != nil {
		t.Fatal(err)
	}
	withCombine := wordCountJob(texts, 1)
	withCombine.Combine = withCombine.Reduce
	combined, err := (&Local{}).Run(withCombine)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(countsOf(noCombine), countsOf(combined)) {
		t.Fatal("combiner changed the result")
	}
	if combined.Metrics.ShuffleRecords >= noCombine.Metrics.ShuffleRecords {
		t.Fatalf("combiner did not reduce shuffle: %d vs %d",
			combined.Metrics.ShuffleRecords, noCombine.Metrics.ShuffleRecords)
	}
	if combined.Metrics.ShuffleRecords != 2 {
		t.Fatalf("shuffle records = %d, want 2 (one per split)", combined.Metrics.ShuffleRecords)
	}
}

func TestLocalSortsWithinPartition(t *testing.T) {
	job := wordCountJob([]string{"pear apple zebra mango"}, 1)
	res, err := (&Local{}).Run(job)
	if err != nil {
		t.Fatal(err)
	}
	pairs := res.Partitions[0]
	for i := 1; i < len(pairs); i++ {
		if bytes.Compare(pairs[i-1].Key, pairs[i].Key) > 0 {
			t.Fatalf("partition not sorted: %q after %q", pairs[i].Key, pairs[i-1].Key)
		}
	}
}

func TestLocalCustomCompareAndPartition(t *testing.T) {
	// Descending numeric sort with a single partition.
	job := &Job{
		Name:   "desc",
		Splits: []Split{{ID: 0}},
		Map: func(ctx TaskContext, split Split, emit Emit) error {
			for _, v := range []float64{3.5, -1, 100, 0} {
				if err := emit(EncodeFloat64(v), nil); err != nil {
					return err
				}
			}
			return nil
		},
		Compare:   func(a, b []byte) int { return bytes.Compare(b, a) },
		Partition: func(key []byte, n int) int { return 0 },
	}
	res, err := (&Local{}).Run(job)
	if err != nil {
		t.Fatal(err)
	}
	var got []float64
	for _, kv := range res.Partitions[0] {
		got = append(got, DecodeFloat64(kv.Key))
	}
	want := []float64{100, 3.5, 0, -1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestLocalRetryOnInjectedFailure(t *testing.T) {
	// Injectors run concurrently across tasks: decide from the context
	// alone (the first attempt of task 1, in either phase, fails).
	eng := &Local{
		FailureInjector: func(kind string, ctx TaskContext) error {
			if ctx.TaskID == 1 && ctx.Attempt == 1 {
				return errors.New("injected")
			}
			return nil
		},
	}
	job := wordCountJob([]string{"a", "b b", "c"}, 2)
	res, err := eng.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{"a": 1, "b": 2, "c": 1}
	if got := countsOf(res); !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	if res.Metrics.MapRetries == 0 {
		t.Fatal("expected a recorded retry")
	}
}

func TestLocalPermanentFailureSurfaces(t *testing.T) {
	eng := &Local{
		MaxAttempts: 2,
		FailureInjector: func(kind string, ctx TaskContext) error {
			if kind == "map" && ctx.TaskID == 0 {
				return errors.New("always broken")
			}
			return nil
		},
	}
	if _, err := eng.Run(wordCountJob([]string{"a"}, 1)); err == nil {
		t.Fatal("want error after exhausted retries")
	}
}

func TestLocalMapPanicIsCaught(t *testing.T) {
	job := &Job{
		Name:   "panicky",
		Splits: []Split{{ID: 0}},
		Map: func(ctx TaskContext, split Split, emit Emit) error {
			panic("boom")
		},
	}
	if _, err := (&Local{MaxAttempts: 1}).Run(job); err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("err = %v, want panic error", err)
	}
}

func TestJobValidation(t *testing.T) {
	if _, err := (&Local{}).Run(&Job{Splits: []Split{{}}}); err == nil {
		t.Error("nil map accepted")
	}
	if _, err := (&Local{}).Run(&Job{Map: func(TaskContext, Split, Emit) error { return nil }}); err == nil {
		t.Error("no splits accepted")
	}
}

func TestIdentityReduce(t *testing.T) {
	job := &Job{
		Name:   "identity",
		Splits: []Split{{ID: 0}},
		Map: func(ctx TaskContext, split Split, emit Emit) error {
			emit([]byte("k2"), []byte("v2"))
			emit([]byte("k1"), []byte("v1"))
			return nil
		},
	}
	res, err := (&Local{}).Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Partitions[0]) != 2 || string(res.Partitions[0][0].Key) != "k1" {
		t.Fatalf("partitions = %+v", res.Partitions)
	}
}

func TestMakespanScaling(t *testing.T) {
	m := Metrics{}
	for i := 0; i < 40; i++ {
		m.MapStats = append(m.MapStats, TaskStat{TaskID: i, Duration: time.Second})
	}
	if got := m.Makespan(40, 1); got != time.Second {
		t.Fatalf("40 slots: %v", got)
	}
	if got := m.Makespan(10, 1); got != 4*time.Second {
		t.Fatalf("10 slots: %v", got)
	}
	if got := m.Makespan(1, 1); got != 40*time.Second {
		t.Fatalf("1 slot: %v", got)
	}
	// Halving slots doubles makespan — the linear scalability shape of
	// Figure 5c.
	if m.Makespan(10, 1) != 2*m.Makespan(20, 1) {
		t.Fatal("halving slots should double makespan for uniform tasks")
	}
}

func TestMakespanHandlesRemainderAndZeroSlots(t *testing.T) {
	m := Metrics{MapStats: []TaskStat{{Duration: 3 * time.Second}, {Duration: time.Second}, {Duration: time.Second}}}
	if got := m.Makespan(2, 0); got != 3*time.Second {
		t.Fatalf("got %v", got)
	}
	if got := m.Makespan(0, 0); got != 5*time.Second {
		t.Fatalf("zero slots clamp: %v", got)
	}
}

func TestPartitionStaysInRange(t *testing.T) {
	// The default partitioner must reduce the FNV hash in uint32 space:
	// int(h.Sum32()) % n went negative on 32-bit platforms for hashes
	// above MaxInt32. Exercise keys on both sides of that boundary.
	job := &Job{Reducers: 3}
	var high, low bool
	for i := 0; i < 1<<12 && !(high && low); i++ {
		key := []byte(fmt.Sprintf("key-%d", i))
		h := fnv.New32a()
		h.Write(key)
		sum := h.Sum32()
		if sum > math.MaxInt32 {
			high = true
		} else {
			low = true
		}
		p := job.partition(key)
		if p < 0 || p >= 3 {
			t.Fatalf("partition(%q) = %d (hash %d), out of range", key, p, sum)
		}
		if want := int(sum % 3); p != want {
			t.Fatalf("partition(%q) = %d, want %d", key, p, want)
		}
	}
	if !high || !low {
		t.Fatalf("key sweep did not cover both hash ranges (high=%v low=%v)", high, low)
	}
}

func TestCodecOrderPreservation(t *testing.T) {
	f := func(a, b int64) bool {
		ea, eb := EncodeInt64(a), EncodeInt64(b)
		cmp := bytes.Compare(ea, eb)
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	g := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		cmp := bytes.Compare(EncodeFloat64(a), EncodeFloat64(b))
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(g, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCodecRoundTrips(t *testing.T) {
	for _, v := range []int64{0, 1, -1, math.MaxInt64, math.MinInt64, 42} {
		if DecodeInt64(EncodeInt64(v)) != v {
			t.Errorf("int64 %d", v)
		}
	}
	for _, v := range []float64{0, -0.5, 1e300, -1e300, 3.14} {
		if DecodeFloat64(EncodeFloat64(v)) != v {
			t.Errorf("float64 %g", v)
		}
	}
	for _, v := range []uint64{0, 7, math.MaxUint64} {
		if DecodeUint64(EncodeUint64(v)) != v {
			t.Errorf("uint64 %d", v)
		}
	}
}

func TestGobCodec(t *testing.T) {
	type payload struct {
		A int
		B []float64
	}
	in := payload{A: 7, B: []float64{1, 2}}
	b, err := GobEncode(in)
	if err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := GobDecode(b, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("got %+v", out)
	}
	if got := MustGobEncode(in); !bytes.Equal(got, b) {
		t.Fatal("MustGobEncode differs")
	}
}

func TestRegistry(t *testing.T) {
	if !HasJob("test-registry-job") { // survive go test -count=N
		RegisterJob("test-registry-job", func(params []byte) (*Job, error) {
			return wordCountJob([]string{string(params)}, 1), nil
		})
	}
	job, err := LookupJob("test-registry-job", []byte("hello world"))
	if err != nil || len(job.Splits) != 1 {
		t.Fatalf("job=%+v err=%v", job, err)
	}
	if _, err := LookupJob("missing-job", nil); err == nil {
		t.Fatal("missing job lookup succeeded")
	}
	found := false
	for _, n := range RegisteredJobs() {
		if n == "test-registry-job" {
			found = true
		}
	}
	if !found {
		t.Fatal("registered job not listed")
	}
	if !HasJob("test-registry-job") || HasJob("missing-job") {
		t.Fatal("HasJob disagrees with the registry")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	RegisterJob("test-registry-job", nil)
}
