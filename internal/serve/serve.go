// Package serve exposes a wavelet synopsis as an approximate-query HTTP
// service: the deployment shape the paper's introduction motivates, where
// the base data is remote or too large and exploratory queries are
// answered from a compact synopsis with deterministic guarantees.
//
// Endpoints (all JSON):
//
//	GET  /info                 synopsis metadata
//	GET  /point?i=K            approximate d[K] with guaranteed interval
//	GET  /range?lo=L&hi=H      approximate sum and mean over [L, H]
//	GET  /coefficients         the retained terms
//	POST /ingest               append stream values (ingest servers only)
//
// A server is either static — built from one immutable synopsis — or
// streaming, built over an ingest.Ingestor whose published snapshot the
// query handlers read afresh on every request. Queries against a
// streaming server that has not yet completed its first block answer 503
// with a Retry-After hint, the same contract the admission gate uses.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"dwmaxerr/internal/ingest"
	"dwmaxerr/internal/obs"
	"dwmaxerr/internal/synopsis"
)

// view is one immutable synopsis a query is answered against, with
// everything /info reports about it: the static synopsis, the
// ingestor's current snapshot, or a node's cached shard.
type view struct {
	syn    *synopsis.Synopsis
	ev     *synopsis.Evaluator
	maxAbs float64 // per-value guarantee; 0 when unknown
	// window is non-nil on streaming servers: the snapshot's position,
	// with ing the ingestor whose stream totals /info reports.
	window *ingest.Snapshot
	ing    *ingest.Ingestor
	// Identity in the sharded tier, set on a node's cached shards so
	// /info reports who answered even through the router. Empty on
	// standalone servers (and omitted from the JSON).
	node, shard, role string
}

func newView(s *synopsis.Synopsis, maxAbs float64) (*view, error) {
	if s == nil || s.N < 1 {
		return nil, fmt.Errorf("serve: nil or empty synopsis")
	}
	return &view{syn: s, ev: synopsis.NewEvaluator(s), maxAbs: maxAbs}, nil
}

// Server answers approximate queries against one synopsis — fixed at
// construction, or live from an ingestor.
type Server struct {
	static *view            // non-nil for New-built servers
	ing    *ingest.Ingestor // non-nil for NewIngest-built servers
	mux    *http.ServeMux
	gate   *gate // non-nil when built by NewLimited / NewIngest
}

// New builds a server over a synopsis with the given per-value maximum
// absolute error guarantee (pass 0 if the synopsis carries no guarantee,
// e.g. a conventional one; intervals are then omitted).
func New(s *synopsis.Synopsis, maxAbs float64) (*Server, error) {
	v, err := newView(s, maxAbs)
	if err != nil {
		return nil, err
	}
	srv := &Server{static: v}
	srv.routes()
	return srv, nil
}

// NewIngest builds a streaming server: queries answer against the
// ingestor's live snapshot, and POST /ingest feeds it. The admission
// gate always wraps a streaming server — ingestion shares the in-flight
// budget with queries, so a push storm degrades to honest 503s instead
// of starving readers.
func NewIngest(ing *ingest.Ingestor, lim Limits) (*Server, error) {
	if ing == nil {
		return nil, fmt.Errorf("serve: nil ingestor")
	}
	srv := &Server{ing: ing}
	srv.routes()
	srv.mux.HandleFunc("/ingest", srv.handleIngest)
	srv.gate = newGate(srv.mux, lim)
	return srv, nil
}

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	for path := range queryEndpoints {
		s.mux.HandleFunc(path, s.handleQuery)
	}
}

// notReady answers a query that arrived before the first snapshot. The
// gate counts this 503 as neither rejection nor timeout (the completion
// marker sees the handler finish) — it is the warm-up contract, not an
// overload signal. The Retry-After hint is derived from the observed
// ingest rate (how long until the first block completes at the current
// pace) rather than a bare constant; with nothing observed yet it falls
// back to 1s.
func notReady(w http.ResponseWriter, hint time.Duration) {
	secs := 1
	if hint > 0 {
		secs = retrySeconds(hint)
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	httpError(w, http.StatusServiceUnavailable,
		fmt.Errorf("serve: synopsis warming up, no complete block yet"))
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.gate != nil {
		s.gate.ServeHTTP(w, r)
		return
	}
	s.mux.ServeHTTP(w, r)
}

// Info is the /info response. The streaming fields are present only on
// ingest servers.
type Info struct {
	N           int     `json:"n"`
	Terms       int     `json:"terms"`
	MaxAbsError float64 `json:"max_abs_error,omitempty"`
	Guaranteed  bool    `json:"guaranteed"`
	// Ingest marks a streaming server; the window fields describe the
	// published snapshot (which trails ingestion by bounded staleness).
	Ingest      bool  `json:"ingest,omitempty"`
	Epoch       int64 `json:"epoch,omitempty"`
	WindowStart int64 `json:"window_start,omitempty"`
	Seen        int64 `json:"seen,omitempty"`
	Durable     int64 `json:"durable,omitempty"`
	// Sharded-tier identity: which node answered, which shard it served
	// from, and its ring role for that shard ("primary" / "replica-<i>").
	// Present only on answers from a cluster node.
	Node  string `json:"node,omitempty"`
	Shard string `json:"shard,omitempty"`
	Role  string `json:"role,omitempty"`
}

// PointAnswer is the /point response.
type PointAnswer struct {
	Index  int      `json:"index"`
	Approx float64  `json:"approx"`
	Lo     *float64 `json:"lo,omitempty"`
	Hi     *float64 `json:"hi,omitempty"`
}

// RangeAnswer is the /range response.
type RangeAnswer struct {
	Lo        int      `json:"lo"`
	Hi        int      `json:"hi"`
	Count     int      `json:"count"`
	Sum       float64  `json:"sum"`
	Avg       float64  `json:"avg"`
	SumLo     *float64 `json:"sum_lo,omitempty"`
	SumHi     *float64 `json:"sum_hi,omitempty"`
	Guarantee float64  `json:"per_value_guarantee,omitempty"`
}

// IngestRequest is the POST /ingest body.
type IngestRequest struct {
	Values []float64 `json:"values"`
}

// IngestAnswer is the POST /ingest response. Accepted counts values
// ingested by THIS request; Seen and Durable are stream totals.
type IngestAnswer struct {
	Accepted int   `json:"accepted"`
	Seen     int64 `json:"seen"`
	Durable  int64 `json:"durable"`
	Epoch    int64 `json:"epoch"`
}

// queryKind names one endpoint of the query API.
type queryKind int

const (
	infoQuery queryKind = iota
	pointQuery
	rangeQuery
	coefficientsQuery
)

// queryEndpoints is the query API: the paths a server's mux registers,
// a node parses and the router forwards, each with the counter its
// queries move.
var queryEndpoints = map[string]struct {
	kind    queryKind
	queries *obs.Counter
}{
	"/info":         {infoQuery, obsInfoQueries},
	"/point":        {pointQuery, obsPointQueries},
	"/range":        {rangeQuery, obsRangeQueries},
	"/coefficients": {coefficientsQuery, obsCoefQueries},
}

type query struct {
	kind   queryKind
	i      int // /point
	lo, hi int // /range, inclusive
}

// parseQuery turns a request path and its raw query string into a
// query, counting it toward its endpoint. Parameters are checked for
// syntax here and against the synopsis in answer.
func parseQuery(path, rawQuery string) (query, error) {
	ep, ok := queryEndpoints[path]
	if !ok {
		return query{}, fmt.Errorf("serve: unknown endpoint %q", path)
	}
	ep.queries.Inc()
	q := query{kind: ep.kind}
	vals, _ := url.ParseQuery(rawQuery) // malformed pairs dropped, as url.URL.Query does
	var err error
	switch q.kind {
	case pointQuery:
		q.i, err = intParam(vals, "i")
	case rangeQuery:
		if q.lo, err = intParam(vals, "lo"); err == nil {
			q.hi, err = intParam(vals, "hi")
		}
	}
	return q, err
}

// respond answers a request to the query API from v: what a server's
// handler writes and a node ships in its shard reply. An unknown path,
// which only a node can be sent, is a 400.
func respond(v *view, path, rawQuery string) (int, any) {
	q, err := parseQuery(path, rawQuery)
	if err != nil {
		return badRequest(err)
	}
	return answer(v, q)
}

// answer evaluates q against v, returning the status and the value to
// encode as the JSON body.
func answer(v *view, q query) (int, any) {
	n := v.syn.N
	switch q.kind {
	case infoQuery:
		info := Info{
			N:           n,
			Terms:       v.syn.Size(),
			MaxAbsError: v.maxAbs,
			Guaranteed:  v.maxAbs > 0,
			Node:        v.node,
			Shard:       v.shard,
			Role:        v.role,
		}
		if v.window != nil {
			info.Ingest = true
			info.Epoch = v.window.Epoch
			info.WindowStart = v.window.Start
			info.Seen = v.ing.Seen()
			info.Durable = v.ing.Durable()
		}
		return http.StatusOK, info
	case pointQuery:
		if q.i < 0 || q.i >= n {
			return badRequest(fmt.Errorf("index %d out of [0,%d)", q.i, n))
		}
		ans := PointAnswer{Index: q.i, Approx: v.ev.Point(q.i)}
		if v.maxAbs > 0 {
			b := v.ev.PointBound(q.i, v.maxAbs)
			lo, hi := b.Lo(), b.Hi()
			ans.Lo, ans.Hi = &lo, &hi
		}
		return http.StatusOK, ans
	case rangeQuery:
		lo, hi := q.lo, q.hi
		if lo < 0 || hi >= n || lo > hi {
			return badRequest(fmt.Errorf("range [%d,%d] out of [0,%d)", lo, hi, n))
		}
		sum := v.ev.RangeSum(lo, hi)
		count := hi - lo + 1
		ans := RangeAnswer{Lo: lo, Hi: hi, Sum: sum, Avg: sum / float64(count), Count: count, Guarantee: v.maxAbs}
		if v.maxAbs > 0 {
			b := v.ev.RangeSumBound(lo, hi, v.maxAbs)
			sl, sh := b.Lo(), b.Hi()
			ans.SumLo, ans.SumHi = &sl, &sh
		}
		return http.StatusOK, ans
	default: // coefficientsQuery
		type term struct {
			Index int     `json:"index"`
			Value float64 `json:"value"`
		}
		out := make([]term, 0, v.syn.Size())
		for _, t := range v.syn.Terms {
			out = append(out, term{t.Index, t.Value})
		}
		return http.StatusOK, out
	}
}

// handleQuery answers from the static synopsis, or from the ingestor's
// snapshot of the moment on a streaming server.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	v := s.static
	if v == nil {
		snap := s.ing.Snapshot()
		if snap == nil {
			notReady(w, s.ing.EstimateWarmup())
			return
		}
		v = &view{syn: snap.Syn, ev: snap.Ev, window: snap, ing: s.ing}
	}
	status, body := respond(v, r.URL.Path, r.URL.RawQuery)
	writeJSON(w, status, body)
}

// handleIngest appends stream values. With ?sync=1 the response is not
// written until the published snapshot covers every block the request
// completed — the barrier tests and single-writer producers use to read
// their own writes.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	obsIngestRequests.Inc()
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("ingest requires POST"))
		return
	}
	var req IngestRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("ingest body: %v", err))
		return
	}
	accepted := 0
	for _, v := range req.Values {
		if err := s.ing.Push(v); err != nil {
			// Partial acceptance is the honest answer: `accepted` tells the
			// producer exactly where to resume, mirroring Durable's contract.
			obsIngestErrors.Inc()
			writeJSON(w, http.StatusServiceUnavailable, IngestAnswer{
				Accepted: accepted,
				Seen:     s.ing.Seen(),
				Durable:  s.ing.Durable(),
				Epoch:    snapshotEpoch(s.ing),
			})
			return
		}
		accepted++
		obsIngestValues.Inc()
	}
	if r.URL.Query().Get("sync") == "1" {
		s.ing.Sync()
	}
	writeJSON(w, http.StatusOK, IngestAnswer{
		Accepted: accepted,
		Seen:     s.ing.Seen(),
		Durable:  s.ing.Durable(),
		Epoch:    snapshotEpoch(s.ing),
	})
}

func snapshotEpoch(ing *ingest.Ingestor) int64 {
	if snap := ing.Snapshot(); snap != nil {
		return snap.Epoch
	}
	return 0
}

func intParam(vals url.Values, name string) (int, error) {
	raw := vals.Get(name)
	if raw == "" {
		return 0, fmt.Errorf("missing parameter %q", name)
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("parameter %q: %v", name, err)
	}
	return v, nil
}

// errorBody is the JSON body of every error answer.
type errorBody struct {
	Error string `json:"error"`
}

func badRequest(err error) (int, any) {
	obsBadRequests.Inc()
	return http.StatusBadRequest, errorBody{err.Error()}
}

// encodeJSON renders v as json.Encoder writes it, trailing newline
// included: the body bytes of every answer, whether written over HTTP
// or carried in a shard reply. A value JSON cannot represent encodes to
// nothing.
func encodeJSON(v any) []byte {
	var b bytes.Buffer
	json.NewEncoder(&b).Encode(v)
	return b.Bytes()
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(encodeJSON(v))
}

func httpError(w http.ResponseWriter, code int, err error) {
	if code == http.StatusBadRequest {
		obsBadRequests.Inc()
	}
	writeJSON(w, code, errorBody{err.Error()})
}
