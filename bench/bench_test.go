package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median(9,1,5) = %g, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %g, want 2.5", got)
	}
}

// The driver takes spreads with Python's statistics.quantiles(xs, n=4);
// the expected values below are what that function returns.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 3, 7, 15})
	if q1 != 1.5 || q2 != 5 || q3 != 13 {
		t.Errorf("quartiles(1,3,7,15) = %g %g %g, want 1.5 5 13", q1, q2, q3)
	}
	if got := spread([]float64{1, 3, 7, 15}); got != 2.3 {
		t.Errorf("spread(1,3,7,15) = %g, want 2.3", got)
	}
}

// A server that stalls once must show the stall in the latency of the
// requests that were due while it stalled, although each of those was
// served at once when finally sent (coordinated omission).
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const (
		rate  = 1000.0
		stall = 100 * time.Millisecond
	)
	var stalled atomic.Bool
	samples := openLoop(rate, 300*time.Millisecond, 1, func(_, k int) {
		if k == 50 && stalled.CompareAndSwap(false, true) {
			time.Sleep(stall)
		}
	})
	if len(samples) != 300 {
		t.Fatalf("sent %d requests, want every one of the 300 due", len(samples))
	}
	var waited, slowService int
	for _, s := range samples {
		if s.latency() > stall/2 {
			waited++
		}
		if s.service() > stall/2 {
			slowService++
		}
	}
	if slowService != 1 {
		t.Errorf("%d requests had a slow service time, want only the stalled one", slowService)
	}
	// Requests 50..~100 were due during the first half of the stall.
	if waited < 40 {
		t.Errorf("only %d requests carry the stall in their latency, want at least 40", waited)
	}
}

func TestClosedLoopSendsEachRequestOnce(t *testing.T) {
	var seen [500]atomic.Int32
	samples := closedLoop(2, forCount(len(seen)), func(_, k int) {
		seen[k].Add(1)
	})
	if len(samples) != len(seen) {
		t.Fatalf("got %d samples, want %d", len(samples), len(seen))
	}
	for k := range seen {
		if n := seen[k].Load(); n != 1 {
			t.Fatalf("request %d sent %d times", k, n)
		}
	}
}

func TestWindowedPercentileIgnoresOneBadWindow(t *testing.T) {
	var samples []sample
	for i := 0; i < 5000; i++ {
		due := time.Duration(i) * time.Millisecond
		lat := time.Millisecond
		if i >= 2000 && i < 2500 { // half of the third second is a stall
			lat = 200 * time.Millisecond
		}
		samples = append(samples, sample{due: due, sent: due, done: due + lat})
	}
	if got := windowedPercentile(samples, time.Second, 99); got != 1 {
		t.Errorf("windowed p99 = %g ms, want 1", got)
	}
	if got := percentile(sortedMS(samples, sample.latency), 99); got != 200 {
		t.Errorf("plain p99 = %g ms, want 200", got)
	}
}

func TestSelfTimeNested(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "root", parent: -1, start: 0, end: 100 * ms},
		{name: "a", parent: 0, start: 10 * ms, end: 40 * ms},
		{name: "b", parent: 0, start: 30 * ms, end: 60 * ms}, // overlaps a by 10 ms
		{name: "leaf", parent: 1, start: 15 * ms, end: 20 * ms},
		{name: "late", parent: 0, start: 90 * ms, end: 120 * ms}, // runs past its parent
	}
	want := []time.Duration{40 * ms, 25 * ms, 30 * ms, 5 * ms, 30 * ms}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].name, got, want[i])
		}
	}
	rows := layerTable(append(spans, span{name: "a", parent: -1, start: 0, end: 7 * ms}))
	if rows[1].name != "a" || rows[1].count != 2 || rows[1].total != 37*ms || rows[1].self != 32*ms {
		t.Errorf("row a = %+v, want count 2, total 37ms, self 32ms", rows[1])
	}
}

// benchmarkJSON mirrors the whole of BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, defaultSeconds = %d", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bj.Paths)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	names := workloadNames()
	if len(names) < 2 || len(names) > 8 || len(bj.Workloads) != len(names) {
		t.Fatalf("%d workloads in the code, %d in BENCHMARK.json, limit 2..8", len(names), len(bj.Workloads))
	}
	for i, w := range bj.Workloads {
		name(w.Name)
		if w.Name != names[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the code", i, w.Name, names[i])
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	if len(endToEnd) > 16 || len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in the code, %d in BENCHMARK.json, limit 16", len(endToEnd), len(bj.EndToEnd))
	}
	for i, m := range bj.EndToEnd {
		name(m.Name)
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the code",
				i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("unit %q of %s is not a valid unit", m.Unit, m.Name)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if bj.EndToEnd[0].Name != "setup_s" || bj.EndToEnd[0].Unit != "s" || bj.EndToEnd[0].Better != "lower" {
		t.Errorf("the first end-to-end metric must be setup_s in s, lower is better")
	}

	if len(perLayer) > 128 || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in the code, %d in BENCHMARK.json, limit 128", len(perLayer), len(bj.PerLayer))
	}
	for i, m := range bj.PerLayer {
		name(m.Name)
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the code",
				i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("unit %q of %s is not a valid unit", m.Unit, m.Name)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
}

// Every workload runs at toy size, untraced and traced, passes its own
// correctness gate and reports exactly the metrics of its mode.
func TestQuickRunsAllWorkloads(t *testing.T) {
	t.Chdir(t.TempDir())
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			opt := options{workload: w, seed: 3, dur: 200 * time.Millisecond, trace: trace, quick: true}
			if trace {
				opt.traceOut = w + ".trace.json"
			}
			var out bytes.Buffer
			rec, err := run(opt, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					w, trace, rec.Correct, rec.Attempted, rec.Failed, out.String())
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(rec.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics reported, want %d", w, trace, len(rec.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := rec.Metrics[d.name]
				if !ok || v.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s missing or in unit %q", w, trace, d.name, v.Unit)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, must never be 0", w, d.name, v.Value)
				}
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || last.Attempted != rec.Attempted {
				t.Errorf("%s trace=%v: last line is not the result object: %v", w, trace, err)
			}
			if trace {
				checkChromeTrace(t, opt.traceOut)
			}
		}
	}
	if left, _ := filepath.Glob(".bench_build/*"); len(left) != 0 {
		t.Errorf("runs left files behind: %v", left)
	}
}

func checkChromeTrace(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("%s does not load: %v", path, err)
	}
	pids := map[int]int{}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || e.Dur < 0 || e.Ts < 0 {
			t.Fatalf("%s: bad event %+v", path, e)
		}
		pids[e.Pid]++
	}
	if pids[1] == 0 || pids[2] == 0 {
		t.Errorf("%s: want spans of the benchmark (pid 1) and of the program (pid 2), got %v", path, pids)
	}
}

func TestCompareAppliesBoundsByDirection(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	mf := write("BENCHMARK.json", `{"workloads":[{"name":"w"}],"end_to_end":[
		{"name":"lat","unit":"ms","better":"lower","bound":0.1},
		{"name":"qps","unit":"1/s","better":"higher","bound":0.1}]}`)
	runs := func(lat, qps string) string {
		var b strings.Builder
		for i := 0; i < 3; i++ {
			b.WriteString(`{"workload":"w","correct":true,"attempted":1,"failed":0,"metrics":{"lat":{"value":` +
				lat + `,"unit":"ms"},"qps":{"value":` + qps + `,"unit":"1/s"}}}` + "\n")
		}
		return b.String()
	}
	base := write("a.jsonl", runs("10", "100"))
	for _, c := range []struct {
		name, lat, qps string
		want           int
	}{
		{"same", "10", "100", 0},
		{"better", "5", "200", 0},
		{"within", "10.9", "91", 0},
		{"slower", "11.5", "100", 1},
		{"fewer", "10", "85", 1},
	} {
		if got := compareFiles(io.Discard, mf, base, write(c.name+".jsonl", runs(c.lat, c.qps))); got != c.want {
			t.Errorf("%s: compare returned %d, want %d", c.name, got, c.want)
		}
	}
	bad := write("bad.jsonl", `{"workload":"w","correct":false,"attempted":1,"failed":1,"metrics":{}}`+"\n")
	if got := compareFiles(io.Discard, mf, base, bad); got == 0 {
		t.Errorf("compare accepted a file with an incorrect run")
	}
}
