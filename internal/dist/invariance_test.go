package dist

import (
	"math"
	"reflect"
	"testing"

	"dwmaxerr/internal/dp"
	"dwmaxerr/internal/synopsis"
)

// The partitioning granularity is an execution detail: results must be
// invariant (CON exactly; the greedy within bucket tolerance) across
// sub-tree sizes — the property behind Figure 5a's flat lines.

func TestCONInvariantToSubtreeSize(t *testing.T) {
	data := randData(101, 512, 1000)
	src := SliceSource(data)
	var want []int
	for _, s := range []int{4, 16, 64, 256} {
		rep, err := CON(src, 64, Config{SubtreeLeaves: s})
		if err != nil {
			t.Fatal(err)
		}
		got := termIndices(rep.Synopsis)
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("s=%d: %v != %v", s, got, want)
		}
	}
}

func TestDGreedyAbsStableAcrossSubtreeSizes(t *testing.T) {
	data := randData(103, 512, 1000)
	src := SliceSource(data)
	var errs []float64
	for _, s := range []int{16, 32, 64, 128} {
		rep, err := DGreedyAbs(src, 64, Config{SubtreeLeaves: s})
		if err != nil {
			t.Fatal(err)
		}
		errs = append(errs, rep.MaxErr)
	}
	lo, hi := errs[0], errs[0]
	for _, e := range errs {
		lo, hi = math.Min(lo, e), math.Max(hi, e)
	}
	if hi > lo*1.1+1e-9 {
		t.Fatalf("error varies too much across sub-tree sizes: %v", errs)
	}
}

func TestDMHaarSpaceSizeInvariantToSubtreeSize(t *testing.T) {
	data := randData(105, 256, 400)
	p := dp.Params{Epsilon: 25, Delta: 1}
	var want int = -1
	for _, s := range []int{4, 16, 64} {
		res, err := DMHaarSpace(SliceSource(data), p, Config{SubtreeLeaves: s})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Feasible {
			t.Fatalf("s=%d infeasible", s)
		}
		if want < 0 {
			want = res.Synopsis.Size()
			continue
		}
		if res.Synopsis.Size() != want {
			t.Fatalf("s=%d: size %d != %d", s, res.Synopsis.Size(), want)
		}
	}
}

func TestJobTaskCountsMatchPartitioning(t *testing.T) {
	n, s := 256, 16
	data := randData(107, n, 100)
	rep, err := DGreedyAbs(SliceSource(data), 32, Config{SubtreeLeaves: s})
	if err != nil {
		t.Fatal(err)
	}
	// Jobs: chunk-means, histogram, select, evaluate — each with one map
	// task per base sub-tree.
	if len(rep.Jobs) != 4 {
		t.Fatalf("jobs = %d, want 4", len(rep.Jobs))
	}
	for i, j := range rep.Jobs {
		if j.MapTasks != n/s {
			t.Fatalf("job %d (%s): %d map tasks, want %d", i, j.Job, j.MapTasks, n/s)
		}
	}
	if rep.Jobs[1].ReduceTasks != 4 {
		t.Fatalf("histogram job reducers = %d, want 4 (paper's default)", rep.Jobs[1].ReduceTasks)
	}
}

func TestHWTopkSmallBudgetShufflesLessThanLarge(t *testing.T) {
	// The Figure 10 vs Figure 11 story: H-WTopk's communication explodes
	// with B (each mapper ships its 2B extremes) but stays tiny at B=50.
	data := randData(109, 1024, 5000)
	src := SliceSource(data)
	cfg := Config{SubtreeLeaves: 64}
	small, err := HWTopk(src, 8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	large, err := HWTopk(src, 128, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if small.TotalShuffleBytes() >= large.TotalShuffleBytes() {
		t.Fatalf("B=8 shuffled %d >= B=128's %d", small.TotalShuffleBytes(), large.TotalShuffleBytes())
	}
}

func TestSendVShufflesRawDataVolume(t *testing.T) {
	data := randData(111, 512, 100)
	rep, err := SendV(SliceSource(data), 64, Config{SubtreeLeaves: 32})
	if err != nil {
		t.Fatal(err)
	}
	// Send-V ships every raw value; gob packs small floats tightly, but the
	// volume must still grow with N (at least ~2 bytes per value) and one
	// record per chunk must cross the shuffle.
	if rep.TotalShuffleBytes() < int64(2*len(data)) {
		t.Fatalf("Send-V shuffled only %d bytes for %d values", rep.TotalShuffleBytes(), len(data))
	}
	if rep.Jobs[0].ShuffleRecords != int64(len(data)/32) {
		t.Fatalf("Send-V shuffled %d records, want one per chunk (%d)", rep.Jobs[0].ShuffleRecords, len(data)/32)
	}
}

func TestDGreedyAbsBudgetOne(t *testing.T) {
	data := randData(113, 64, 100)
	rep, err := DGreedyAbs(SliceSource(data), 1, Config{SubtreeLeaves: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Synopsis.Size() > 1 {
		t.Fatalf("size %d > 1", rep.Synopsis.Size())
	}
	actual := synopsis.MaxAbsError(rep.Synopsis, data)
	if math.Abs(actual-rep.MaxErr) > 1e-9*(1+actual) {
		t.Fatalf("reported %g actual %g", rep.MaxErr, actual)
	}
}

func TestDGreedyAbsRejectsBadConfig(t *testing.T) {
	data := randData(115, 64, 100)
	if _, err := DGreedyAbs(SliceSource(data), 0, Config{SubtreeLeaves: 8}); err == nil {
		t.Error("budget 0 accepted")
	}
	if _, err := DGreedyAbs(SliceSource(data), 8, Config{SubtreeLeaves: 6}); err == nil {
		t.Error("non-power-of-two sub-tree accepted")
	}
	if _, err := DGreedyAbs(SliceSource(data), 8, Config{SubtreeLeaves: 64}); err == nil {
		t.Error("sub-tree == n accepted")
	}
	if _, err := DGreedyAbs(SliceSource(data[:63]), 8, Config{SubtreeLeaves: 8}); err == nil {
		t.Error("non-power-of-two input accepted")
	}
}

func TestReportMakespanMonotone(t *testing.T) {
	data := randData(117, 256, 100)
	rep, err := DGreedyAbs(SliceSource(data), 32, Config{SubtreeLeaves: 16})
	if err != nil {
		t.Fatal(err)
	}
	m40 := rep.Makespan(40, 4)
	m10 := rep.Makespan(10, 4)
	m1 := rep.Makespan(1, 1)
	if !(m40 <= m10 && m10 <= m1) {
		t.Fatalf("makespans not monotone: 40→%v 10→%v 1→%v", m40, m10, m1)
	}
}
