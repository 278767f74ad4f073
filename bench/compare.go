package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// manifest is the part of BENCHMARK.json the comparison needs.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns the first quartile, the median and the third quartile
// the way Python's statistics.quantiles(xs, n=4) does (the driver's
// method), so a spread computed here reads the same there. xs needs at
// least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(xs)
	return ratio(q3-q1, q2)
}

// readRuns groups the untraced runs of a -json file by workload and
// metric.
func readRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace {
			continue
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s: run of %s with seed %d was not correct", path, r.Workload, r.Seed)
		}
		if runs[r.Workload] == nil {
			runs[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			runs[r.Workload][name] = append(runs[r.Workload][name], v.Value)
		}
	}
	return runs, sc.Err()
}

// compareFiles prints, per workload and end-to-end metric, the medians of
// the two sets of runs, each set's spread, how much worse the second is,
// and the bound; it returns 1 when any bound is exceeded.
func compareFiles(out io.Writer, manifestPath, pathA, pathB string) int {
	fail := func(err error) int {
		fmt.Fprintln(out, "bench: compare:", err)
		return 2
	}
	raw, err := os.ReadFile(manifestPath)
	if err != nil {
		return fail(fmt.Errorf("%w (run from the repository root)", err))
	}
	var mf manifest
	if err := json.Unmarshal(raw, &mf); err != nil {
		return fail(fmt.Errorf("%s: %w", manifestPath, err))
	}
	a, err := readRuns(pathA)
	if err != nil {
		return fail(err)
	}
	b, err := readRuns(pathB)
	if err != nil {
		return fail(err)
	}

	code := 0
	fmt.Fprintf(out, "%-16s %-13s %14s %8s %14s %8s %8s %6s\n",
		"workload", "metric", "median A", "spread", "median B", "spread", "worse", "bound")
	for _, w := range mf.Workloads {
		for _, m := range mf.EndToEnd {
			va, vb := a[w.Name][m.Name], b[w.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(out, "%-16s %-13s missing from one of the files\n", w.Name, m.Name)
				code = 1
				continue
			}
			ma, mb := median(va), median(vb)
			worse := ratio(mb-ma, ma)
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > m.Bound {
				verdict = "  WORSE"
				code = 1
			}
			fmt.Fprintf(out, "%-16s %-13s %14.6g %7.1f%% %14.6g %7.1f%% %+7.1f%% %5.0f%%%s\n",
				w.Name, m.Name, ma, 100*spread(va), mb, 100*spread(vb), 100*worse, 100*m.Bound, verdict)
		}
	}
	return code
}
