package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"dwmaxerr/internal/greedy"
	"dwmaxerr/internal/synopsis"
)

var paperData = []float64{5, 5, 0, 26, 1, 3, 14, 2}

func testServer(t *testing.T) (*httptest.Server, *synopsis.Synopsis, float64) {
	t.Helper()
	syn, maxAbs, err := greedy.SynopsisAbs(paperData, 4)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(syn, maxAbs)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, syn, maxAbs
}

func getJSON(t *testing.T, url string, out interface{}) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

func TestInfoEndpoint(t *testing.T) {
	ts, syn, maxAbs := testServer(t)
	var info Info
	getJSON(t, ts.URL+"/info", &info)
	if info.N != 8 || info.Terms != syn.Size() || info.MaxAbsError != maxAbs || !info.Guaranteed {
		t.Fatalf("info = %+v", info)
	}
}

func TestPointEndpointGuarantees(t *testing.T) {
	ts, syn, maxAbs := testServer(t)
	ev := synopsis.NewEvaluator(syn)
	for i, d := range paperData {
		var ans PointAnswer
		getJSON(t, ts.URL+"/point?i="+itoa(i), &ans)
		if ans.Approx != ev.Point(i) {
			t.Fatalf("point %d: %g vs %g", i, ans.Approx, ev.Point(i))
		}
		if ans.Lo == nil || ans.Hi == nil {
			t.Fatalf("point %d: missing interval", i)
		}
		if d < *ans.Lo-1e-9 || d > *ans.Hi+1e-9 {
			t.Fatalf("point %d: exact %g outside [%g,%g]", i, d, *ans.Lo, *ans.Hi)
		}
		if *ans.Hi-*ans.Lo != 2*maxAbs {
			t.Fatalf("interval width %g, want %g", *ans.Hi-*ans.Lo, 2*maxAbs)
		}
	}
}

func TestRangeEndpoint(t *testing.T) {
	ts, _, _ := testServer(t)
	var ans RangeAnswer
	getJSON(t, ts.URL+"/range?lo=3&hi=6", &ans)
	if ans.Count != 4 || ans.Lo != 3 || ans.Hi != 6 {
		t.Fatalf("range answer %+v", ans)
	}
	exact := 26.0 + 1 + 3 + 14
	if ans.SumLo == nil || exact < *ans.SumLo-1e-9 || exact > *ans.SumHi+1e-9 {
		t.Fatalf("exact %g outside [%v,%v]", exact, ans.SumLo, ans.SumHi)
	}
	if ans.Avg != ans.Sum/4 {
		t.Fatalf("avg %g, sum %g", ans.Avg, ans.Sum)
	}
}

func TestCoefficientsEndpoint(t *testing.T) {
	ts, syn, _ := testServer(t)
	var terms []struct {
		Index int     `json:"index"`
		Value float64 `json:"value"`
	}
	getJSON(t, ts.URL+"/coefficients", &terms)
	if len(terms) != syn.Size() {
		t.Fatalf("got %d terms, want %d", len(terms), syn.Size())
	}
}

// badQueries are requests every server answers 400, standalone or
// through the router (TestClusterRoutesToRingOwners).
var badQueries = []string{
	"/point", "/point?i=abc", "/point?i=-1", "/point?i=99",
	"/range?lo=1", "/range?lo=5&hi=2", "/range?lo=0&hi=100",
}

func TestBadRequests(t *testing.T) {
	ts, _, _ := testServer(t)
	for _, path := range badQueries {
		if resp := getJSON(t, ts.URL+path, nil); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, resp.StatusCode)
		}
	}
}

func TestUnguaranteedSynopsisOmitsIntervals(t *testing.T) {
	syn, _, err := greedy.SynopsisAbs(paperData, 4)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(syn, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	var ans PointAnswer
	getJSON(t, ts.URL+"/point?i=2", &ans)
	if ans.Lo != nil || ans.Hi != nil {
		t.Fatalf("unexpected interval: %+v", ans)
	}
	var info Info
	getJSON(t, ts.URL+"/info", &info)
	if info.Guaranteed {
		t.Fatal("guaranteed flag set without a guarantee")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, 1); err == nil {
		t.Fatal("nil synopsis accepted")
	}
	if _, err := New(&synopsis.Synopsis{}, 1); err == nil {
		t.Fatal("empty synopsis accepted")
	}
}

func itoa(i int) string {
	return string(rune('0' + i))
}
