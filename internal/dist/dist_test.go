package dist

import (
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"dwmaxerr/internal/dataset"
	"dwmaxerr/internal/greedy"
	"dwmaxerr/internal/mr"
	"dwmaxerr/internal/synopsis"
	"dwmaxerr/internal/wavelet"
)

func randData(seed int64, n int, scale float64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float64, n)
	for i := range data {
		data[i] = math.Trunc(rng.Float64() * scale)
	}
	return data
}

func termIndices(s *synopsis.Synopsis) []int {
	idx := make([]int, 0, s.Size())
	for _, t := range s.Terms {
		idx = append(idx, t.Index)
	}
	sort.Ints(idx)
	return idx
}

func TestSliceSource(t *testing.T) {
	src := SliceSource([]float64{1, 2, 3, 4})
	if src.N() != 4 {
		t.Fatal("N")
	}
	c, err := src.Chunk(1, 3)
	if err != nil || len(c) != 2 || c[0] != 2 {
		t.Fatalf("chunk %v err %v", c, err)
	}
	if _, err := src.Chunk(-1, 2); err == nil {
		t.Fatal("negative lo accepted")
	}
	if _, err := src.Chunk(2, 5); err == nil {
		t.Fatal("hi out of range accepted")
	}
}

func TestFileSourceMatchesSlice(t *testing.T) {
	data := randData(1, 256, 100)
	path := filepath.Join(t.TempDir(), "data.bin")
	if err := dataset.SaveBinary(path, data); err != nil {
		t.Fatal(err)
	}
	fs, err := NewFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	if fs.N() != 256 {
		t.Fatalf("N = %d", fs.N())
	}
	for _, r := range [][2]int{{0, 256}, {5, 9}, {128, 256}, {7, 7}} {
		got, err := fs.Chunk(r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, data[r[0]:r[1]]) {
			t.Fatalf("chunk %v differs", r)
		}
	}
	if _, err := fs.Chunk(0, 500); err == nil {
		t.Fatal("out of range accepted")
	}
}

func TestChunkMeans(t *testing.T) {
	data := []float64{1, 3, 5, 7, 2, 2, 10, 10}
	means, _, err := ChunkMeans(SliceSource(data), 2, &mr.Local{})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 6, 2, 10}
	if !reflect.DeepEqual(means, want) {
		t.Fatalf("means = %v, want %v", means, want)
	}
}

func TestEvaluateMaxAbsMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		n := 1 << (3 + rng.Intn(4))
		data := randData(int64(trial), n, 500)
		w, _ := wavelet.Transform(data)
		var idx []int
		for i := range w {
			if rng.Intn(3) == 0 {
				idx = append(idx, i)
			}
		}
		syn := synopsis.FromIndices(w, idx)
		for _, chunk := range []int{2, 4, n / 2} {
			got, _, err := EvaluateMaxAbs(SliceSource(data), syn, chunk, &mr.Local{})
			if err != nil {
				t.Fatal(err)
			}
			want := synopsis.MaxAbsError(syn, data)
			if math.Abs(got-want) > 1e-9*(1+want) {
				t.Fatalf("trial %d chunk %d: got %g want %g", trial, chunk, got, want)
			}
		}
	}
}

func TestEvaluateMaxRelMatchesDirect(t *testing.T) {
	data := randData(9, 64, 300)
	w, _ := wavelet.Transform(data)
	syn := synopsis.FromIndices(w, []int{0, 1, 5, 9, 33})
	got, _, err := EvaluateMaxRel(SliceSource(data), syn, 8, &mr.Local{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := synopsis.MaxRelError(syn, data, 2)
	if math.Abs(got-want) > 1e-9*(1+want) {
		t.Fatalf("got %g want %g", got, want)
	}
}

// All four conventional-synopsis algorithms must produce exactly the
// synopsis of the centralized significance selection (Appendix A.5).
func TestConventionalAlgorithmsAgree(t *testing.T) {
	for _, tc := range []struct {
		n, s, b int
		seed    int64
	}{
		{64, 8, 8, 1},
		{128, 16, 16, 2},
		{256, 16, 32, 3},
		{64, 4, 50, 4},
	} {
		data := randData(tc.seed, tc.n, 1000)
		src := SliceSource(data)
		cfg := Config{SubtreeLeaves: tc.s}
		w, _ := wavelet.Transform(data)
		want := synopsis.Conventional(w, tc.b)

		con, err := CON(src, tc.b, cfg)
		if err != nil {
			t.Fatalf("CON: %v", err)
		}
		sendv, err := SendV(src, tc.b, cfg)
		if err != nil {
			t.Fatalf("SendV: %v", err)
		}
		sendc, err := SendCoef(src, tc.b, 0, cfg)
		if err != nil {
			t.Fatalf("SendCoef: %v", err)
		}
		hw, err := HWTopk(src, tc.b, cfg)
		if err != nil {
			t.Fatalf("HWTopk: %v", err)
		}
		for name, got := range map[string]*synopsis.Synopsis{
			"CON": con.Synopsis, "SendV": sendv.Synopsis, "SendCoef": sendc.Synopsis, "HWTopk": hw.Synopsis,
		} {
			if !reflect.DeepEqual(termIndices(got), termIndices(want)) {
				t.Fatalf("%v %s indices %v != conventional %v", tc, name, termIndices(got), termIndices(want))
			}
			gm, wm := got.Map(), want.Map()
			for i, v := range wm {
				if math.Abs(gm[i]-v) > 1e-6*(1+math.Abs(v)) {
					t.Fatalf("%v %s value at %d: %g vs %g", tc, name, i, gm[i], v)
				}
			}
		}
	}
}

func TestCONShufflesLessThanSendCoef(t *testing.T) {
	data := randData(7, 512, 1000)
	src := SliceSource(data)
	cfg := Config{SubtreeLeaves: 32}
	con, err := CON(src, 64, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sendc, err := SendCoef(src, 64, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if con.TotalShuffleBytes() >= sendc.TotalShuffleBytes() {
		t.Fatalf("CON shuffled %d >= Send-Coef %d; locality advantage lost",
			con.TotalShuffleBytes(), sendc.TotalShuffleBytes())
	}
}

func TestDGreedyAbsMatchesCentralizedQuality(t *testing.T) {
	for _, tc := range []struct {
		n, s, b int
		seed    int64
	}{
		{64, 8, 8, 11},
		{128, 16, 16, 12},
		{256, 32, 32, 13},
		{256, 16, 64, 14},
		{512, 64, 64, 15},
	} {
		data := randData(tc.seed, tc.n, 1000)
		rep, err := DGreedyAbs(SliceSource(data), tc.b, Config{SubtreeLeaves: tc.s})
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if rep.Synopsis.Size() > tc.b {
			t.Fatalf("%+v: size %d > budget", tc, rep.Synopsis.Size())
		}
		actual := synopsis.MaxAbsError(rep.Synopsis, data)
		if math.Abs(actual-rep.MaxErr) > 1e-9*(1+actual) {
			t.Fatalf("%+v: reported %g actual %g", tc, rep.MaxErr, actual)
		}
		_, central, err := greedy.SynopsisAbs(data, tc.b)
		if err != nil {
			t.Fatal(err)
		}
		// Section 6.3: DGreedyAbs achieves the same maximum absolute error
		// as GreedyAbs (small tolerance for bucket rounding).
		if rep.MaxErr > central*1.05+1e-9 {
			t.Fatalf("%+v: distributed %g much worse than centralized %g", tc, rep.MaxErr, central)
		}
	}
}

func TestDGreedyAbsBeatsConventional(t *testing.T) {
	// Figure 8b: the greedy max-error synopsis is substantially more
	// accurate than the conventional one on hard data.
	data := dataset.NYCTLike{}.Generate(1<<10, 5)
	src := SliceSource(data)
	cfg := Config{SubtreeLeaves: 64}
	b := 128
	dg, err := DGreedyAbs(src, b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	con, err := CON(src, b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	conErr := synopsis.MaxAbsError(con.Synopsis, data)
	if dg.MaxErr > conErr {
		t.Fatalf("DGreedyAbs %g worse than conventional %g", dg.MaxErr, conErr)
	}
}

func TestDGreedyRelMatchesCentralized(t *testing.T) {
	// In the paper's operating regime (budget a meaningful fraction of N,
	// reasonably smooth data) the distributed relative-error greedy matches
	// the centralized GreedyRel.
	data := dataset.WDLike{}.Generate(256, 3)
	for i := range data {
		data[i] += 50
	}
	for _, b := range []int{32, 64, 96} {
		rep, err := DGreedyRel(SliceSource(data), b, Config{SubtreeLeaves: 32, Sanity: 1})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Synopsis.Size() > b {
			t.Fatalf("B=%d: size %d", b, rep.Synopsis.Size())
		}
		actual := synopsis.MaxRelError(rep.Synopsis, data, 1)
		if math.Abs(actual-rep.MaxErr) > 1e-9*(1+actual) {
			t.Fatalf("B=%d: reported %g actual %g", b, rep.MaxErr, actual)
		}
		_, central, err := greedy.SynopsisRel(data, b, 1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(rep.MaxErr-central) > 1e-9+0.02*central {
			t.Fatalf("B=%d: distributed rel %g != centralized %g", b, rep.MaxErr, central)
		}
	}
}

func TestDGreedyRelTightBudgetDegeneracy(t *testing.T) {
	// Known limitation inherited from the paper's histogram batching
	// (Algorithm 3 uses the running maximum, which cannot represent error
	// drops): with a budget so tight that the best centralized choice is
	// near-empty, the distributed estimate overstates and the result can
	// be worse than GreedyRel's. The result must still be a valid,
	// correctly-measured synopsis within budget.
	data := randData(21, 128, 500)
	for i := range data {
		data[i]++
	}
	rep, err := DGreedyRel(SliceSource(data), 16, Config{SubtreeLeaves: 16, Sanity: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Synopsis.Size() > 16 {
		t.Fatalf("size %d", rep.Synopsis.Size())
	}
	actual := synopsis.MaxRelError(rep.Synopsis, data, 1)
	if math.Abs(actual-rep.MaxErr) > 1e-9*(1+actual) {
		t.Fatalf("reported %g actual %g", rep.MaxErr, actual)
	}
	_, central, err := greedy.SynopsisRel(data, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxErr < central-1e-9 {
		t.Fatalf("distributed %g beat centralized %g: tie-break assumptions changed", rep.MaxErr, central)
	}
}

func TestDGreedyAbsWithFailureInjection(t *testing.T) {
	data := randData(31, 128, 1000)
	clean, err := DGreedyAbs(SliceSource(data), 16, Config{SubtreeLeaves: 16})
	if err != nil {
		t.Fatal(err)
	}
	// Injectors run concurrently across tasks, so the memory of who failed
	// already is locked.
	var mu sync.Mutex
	failedOnce := map[[2]int]bool{}
	eng := &mr.Local{FailureInjector: func(kind string, ctx mr.TaskContext) error {
		if kind != "map" || ctx.TaskID%3 != 0 || ctx.Attempt != 1 {
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		k := [2]int{ctx.TaskID, ctx.Attempt}
		if failedOnce[k] {
			return nil
		}
		failedOnce[k] = true
		return errors.New("injected map failure")
	}}
	faulty, err := DGreedyAbs(SliceSource(data), 16, Config{SubtreeLeaves: 16, Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	if faulty.MaxErr != clean.MaxErr {
		t.Fatalf("failure injection changed the result: %g vs %g", faulty.MaxErr, clean.MaxErr)
	}
	if !reflect.DeepEqual(termIndices(faulty.Synopsis), termIndices(clean.Synopsis)) {
		t.Fatal("failure injection changed the synopsis")
	}
}

func TestSendCoefCountsPartialEmissions(t *testing.T) {
	data := randData(401, 256, 500)
	rep, err := SendCoef(SliceSource(data), 32, 0, Config{SubtreeLeaves: 16})
	if err != nil {
		t.Fatal(err)
	}
	uc := rep.Jobs[0].UserCounters
	if uc["sendcoef.partial_emissions"] == 0 {
		t.Fatal("unaligned blocks must produce partial emissions")
	}
	if uc["sendcoef.full_emissions"] == 0 {
		t.Fatal("full coefficients must be emitted")
	}
	total := uc["sendcoef.partial_emissions"] + uc["sendcoef.full_emissions"]
	if total != rep.Jobs[0].ShuffleRecords {
		t.Fatalf("counters %d != shuffle records %d", total, rep.Jobs[0].ShuffleRecords)
	}
}

func TestEvaluateLengthMismatchRejected(t *testing.T) {
	data := randData(402, 64, 10)
	w, _ := wavelet.Transform(data)
	syn := synopsis.FromIndices(w, []int{0})
	short := SliceSource(data[:32])
	if _, _, err := EvaluateMaxAbs(short, syn, 8, &mr.Local{}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, _, err := EvaluateMaxRel(short, syn, 8, &mr.Local{}, 1); err == nil {
		t.Fatal("rel length mismatch accepted")
	}
}
