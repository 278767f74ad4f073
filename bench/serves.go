package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"dwmaxerr"
	"dwmaxerr/internal/serve"
)

// httpClients is the number of client connections: one per core.
const httpClients = 2

var ringNodes = []string{"a", "b", "c"}

const ringReplicas = 2

// serveEnv is a serve workload ready for traffic: shards published, a
// 3-node R=2 ring warmed, a router on a loopback HTTP listener, and the
// true data kept aside to check answers against.
type serveEnv struct {
	spec   serveSpec
	rec    *recorder
	dir    string
	keys   []serve.ShardKey
	data   [][]float64 // per distinct dataset
	prefix [][]float64 // prefix[d][i] = data[d][0] + ... + data[d][i-1]

	nodes  []*serve.Node
	router *serve.Router
	srv    *http.Server
	served chan struct{} // closed when srv.Serve has returned
	base   string
	client [httpClients]*http.Client
}

// setupServe builds and publishes the shards, starts the ring and sends
// the warm-up traffic.
func setupServe(spec serveSpec, seed int64, dir string, rec *recorder, parent int) (*serveEnv, error) {
	e := &serveEnv{spec: spec, rec: rec, dir: filepath.Join(dir, fmt.Sprintf("%s-%d", spec.name, seed))}
	n := 1 << spec.logN

	id := rec.begin("generate", parent)
	for d := 0; d < spec.distinct; d++ {
		data := generate("uniform", n, seed*1000+int64(d))
		prefix := make([]float64, n+1)
		for i, v := range data {
			prefix[i+1] = prefix[i] + v
		}
		e.data, e.prefix = append(e.data, data), append(e.prefix, prefix)
	}
	rec.end(id)

	// Shard s holds the synopsis of dataset s % distinct: the tier caches
	// by key, so copies under other keys are as cold as distinct ones and
	// set-up stays short.
	id = rec.begin("publish", parent)
	err := e.publish()
	rec.end(id)
	if err != nil {
		return nil, err
	}

	id = rec.begin("cluster_start", parent)
	err = e.start()
	rec.end(id)
	if err != nil {
		e.close()
		return nil, err
	}

	id = rec.begin("warmup", parent)
	warm := &tally{}
	closedLoop(httpClients, forCount(spec.warmQueries), e.sender(seed, "warm", warm, nil, -1))
	rec.end(id)
	if warm.failed > 0 {
		e.close()
		return nil, fmt.Errorf("warm-up traffic: %d of %d queries failed: %v", warm.failed, warm.attempted, warm.misses)
	}
	return e, nil
}

func (e *serveEnv) publish() error {
	for s := 0; s < e.spec.shards; s++ {
		e.keys = append(e.keys, serve.ShardKey{Dataset: fmt.Sprintf("s%03d", s), B: e.spec.budget, Metric: "abs"})
	}
	for d := 0; d < e.spec.distinct; d++ {
		res, err := dwmaxerr.Build(e.data[d], dwmaxerr.GreedyAbs, dwmaxerr.Options{Budget: e.spec.budget})
		if err != nil {
			return err
		}
		for s := d; s < e.spec.shards; s += e.spec.distinct {
			if err := serve.WriteShard(e.dir, e.keys[s], res.Synopsis, res.MaxErr); err != nil {
				return err
			}
		}
	}
	return nil
}

func (e *serveEnv) start() error {
	var peers []serve.Peer
	for _, name := range ringNodes {
		node, err := serve.NewNode(serve.NodeConfig{
			Name: name, Nodes: ringNodes, Replicas: ringReplicas,
			Store: serve.DirStore{Dir: e.dir}, CacheShards: e.spec.cacheShards,
		})
		if err != nil {
			return err
		}
		e.nodes = append(e.nodes, node)
		if _, err := node.Warm(); err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		// Serve returns when close() closes the node.
		go node.Serve(ln)
		peers = append(peers, serve.Peer{Name: name, Addr: ln.Addr().String()})
	}
	router, err := serve.NewRouter(serve.RouterConfig{Peers: peers, Replicas: ringReplicas, Tracer: e.rec.programTracer()})
	if err != nil {
		return err
	}
	e.router = router
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.base = "http://" + ln.Addr().String()
	e.srv, e.served = serveHTTP(ln, router)
	for i := range e.client {
		e.client[i] = newClient()
	}
	return nil
}

// serveHTTP serves h on ln until the returned server is closed; done is
// closed once Serve has returned.
func serveHTTP(ln net.Listener, h http.Handler) (*http.Server, chan struct{}) {
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln) // returns ErrServerClosed on Close
	}()
	return srv, done
}

// newClient returns an HTTP client that keeps exactly one connection. The
// timeout turns a hung server into failed requests, not a hung run.
func newClient() *http.Client {
	return &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{
		MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
	}}
}

func (e *serveEnv) close() {
	for _, c := range e.client {
		if c != nil {
			c.CloseIdleConnections()
		}
	}
	if e.srv != nil {
		e.srv.Close()
		<-e.served
	}
	if e.router != nil {
		e.router.Close()
	}
	for _, n := range e.nodes {
		n.Close()
	}
	os.RemoveAll(e.dir)
}

// query is one generated request with the exact answer it must contain.
type query struct {
	url   string // base + path + parameters
	point bool
	truth float64 // the value at i, or the sum over [lo, hi]
}

// nextQuery draws a query: shard uniform, /point or /range by the
// workload's mix, positions uniform. buf is scratch space for the URL,
// returned for the next call.
func (e *serveEnv) nextQuery(rng *rand.Rand, base string, buf []byte) (query, []byte) {
	s := rng.Intn(e.spec.shards)
	d := s % e.spec.distinct
	n := len(e.data[d])
	var q query
	buf = append(buf[:0], base...)
	if rng.Float64() < e.spec.pointFrac {
		i := rng.Intn(n)
		q.point, q.truth = true, e.data[d][i]
		buf = append(buf, "/point?i="...)
		buf = strconv.AppendInt(buf, int64(i), 10)
	} else {
		lo, hi := rng.Intn(n), rng.Intn(n)
		if lo > hi {
			lo, hi = hi, lo
		}
		q.truth = e.prefix[d][hi+1] - e.prefix[d][lo]
		buf = append(buf, "/range?lo="...)
		buf = strconv.AppendInt(buf, int64(lo), 10)
		buf = append(buf, "&hi="...)
		buf = strconv.AppendInt(buf, int64(hi), 10)
	}
	buf = append(buf, "&dataset="...)
	buf = append(buf, e.keys[s].Dataset...)
	buf = append(buf, "&b="...)
	buf = strconv.AppendInt(buf, int64(e.spec.budget), 10)
	buf = append(buf, "&metric=abs"...)
	q.url = string(buf)
	return q, buf
}

// answer holds the fields of a /point or /range response the gate reads.
// It is declared here, not borrowed from the program, so a change of the
// response format shows as failed checks.
type answer struct {
	Approx *float64 `json:"approx"`
	Lo     *float64 `json:"lo"`
	Hi     *float64 `json:"hi"`
	Sum    *float64 `json:"sum"`
	SumLo  *float64 `json:"sum_lo"`
	SumHi  *float64 `json:"sum_hi"`
}

// contains checks that the guaranteed interval of a response holds the
// true value, and returns |approximation - truth|.
func (q query) contains(body []byte) (absErr float64, ok bool) {
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return 0, false
	}
	approx, lo, hi := a.Approx, a.Lo, a.Hi
	if !q.point {
		approx, lo, hi = a.Sum, a.SumLo, a.SumHi
	}
	if approx == nil || lo == nil || hi == nil {
		return 0, false
	}
	slack := 1e-9 * (1 + math.Abs(q.truth) + (*hi - *lo))
	return math.Abs(*approx - q.truth), q.truth >= *lo-slack && q.truth <= *hi+slack
}

// checkEvery is the share of load-phase answers that are parsed and
// checked against the true data; all of them are checked for status 200.
const checkEvery = 100

// verdict receives every checked answer of a verification pass: the
// query, the response size and |approximation - truth|.
type verdict func(q query, size int, absErr float64)

// sender returns the load phases' send function. Each client draws its
// own query stream from (seed, phase, client); a failed or wrong answer
// is tallied. With each set, every answer is parsed and checked, not one
// in checkEvery. With a recorder every query is a span under parent.
func (e *serveEnv) sender(seed int64, phase string, t *tally, each verdict, parent int) sendFunc {
	type state struct {
		rng  *rand.Rand
		url  []byte
		body []byte
	}
	var states [httpClients]state
	for w := range states {
		h := seed
		for _, c := range phase {
			h = h*131 + int64(c)
		}
		states[w].rng = rand.New(rand.NewSource(h*httpClients + int64(w)))
	}
	return func(w, k int) {
		st := &states[w]
		var q query
		q, st.url = e.nextQuery(st.rng, e.base, st.url)
		id := e.rec.begin("query", parent)
		status, body, err := get(e.client[w], q.url, st.body[:0])
		e.rec.end(id)
		st.body = body
		ok := err == nil && status == http.StatusOK
		if ok && (each != nil || k%checkEvery == 0) {
			var absErr float64
			if absErr, ok = q.contains(body); ok && each != nil {
				each(q, len(body), absErr)
			}
		}
		if ok {
			t.pass()
		} else {
			t.fail("%s %s: status %d, error %v, body %.80s", phase, q.url, status, err, body)
		}
	}
}

// get fetches url into buf and returns the status and the body.
func get(c *http.Client, url string, buf []byte) (int, []byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, buf, err
	}
	defer resp.Body.Close()
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := resp.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return resp.StatusCode, buf, nil
		}
		if err != nil {
			return resp.StatusCode, buf, err
		}
	}
}

// verifyPass sends the seeded verification queries one after another and
// checks every answer; it returns the largest |approximation - truth|
// among point answers and the mean response size.
func (e *serveEnv) verifyPass(seed int64, t *tally) (maxAbs, bytesPerOp float64) {
	id := e.rec.begin("verify", -1)
	defer e.rec.end(id)
	var bytes int
	send := e.sender(seed, "verify", t, func(q query, size int, absErr float64) {
		bytes += size
		if q.point {
			maxAbs = math.Max(maxAbs, absErr)
		}
	}, id)
	closedLoop(1, forCount(e.spec.verify), send)
	return maxAbs, float64(bytes) / float64(e.spec.verify)
}

// Share of a run's measured time given to the closed loop; the open loop
// gets the rest, because the tail needs the samples.
const closedShare = 0.3

// runServe is the untraced run of a serve workload: end-to-end metrics.
func runServe(spec serveSpec, seed int64, dur time.Duration, dir string, t *tally) (map[string]float64, error) {
	env, setupSeconds, err := setUpRepeatedly(func() (*serveEnv, error) {
		return setupServe(spec, seed, dir, nil, -1)
	})
	if err != nil {
		return nil, err
	}
	defer env.close()

	closedDur := time.Duration(closedShare * float64(dur))
	closed := closedLoop(httpClients, forDuration(closedDur), env.sender(seed, "closed", t, nil, -1))
	open := openLoop(spec.openRate, dur-closedDur, httpClients, env.sender(seed, "open", t, nil, -1))
	maxAbs, bytesPerOp := env.verifyPass(seed, t)
	t.check(counter("serve_shard_not_owned") == 0, "serve_shard_not_owned = %d", counter("serve_shard_not_owned"))

	return map[string]float64{
		"setup_s":      setupSeconds,
		"op_p50_ms":    percentile(sortedMS(open, sample.latency), 50),
		"op_tail_ms":   windowedPercentile(open, time.Second, 99),
		"ops_per_s":    float64(len(closed)) / closedDur.Seconds(),
		"bytes_per_op": bytesPerOp,
		"max_abs_err":  maxAbs,
	}, nil
}

// traceServe is the traced run of a serve workload: an untraced pass for
// the counters, the open-loop detail and the overhead baseline; a traced
// closed loop for the spans; then the probes.
func traceServe(spec serveSpec, seed int64, dur time.Duration, dir string, rec *recorder, t *tally) (map[string]float64, error) {
	m := map[string]float64{}

	env, err := setupServe(spec, seed, dir, nil, -1)
	if err != nil {
		return nil, err
	}
	before, mem0 := snapshotCounters(), readMem()
	start := time.Now()
	closed := closedLoop(httpClients, forDuration(dur/5), env.sender(seed, "closed", t, nil, -1))
	open := openLoop(spec.openRate, dur/4, httpClients, env.sender(seed, "open", t, nil, -1))
	phase := time.Since(start)
	after, mem1 := snapshotCounters(), readMem()
	env.close()
	delta := func(name string) float64 { return float64(after[name] - before[name]) }

	routed := percentile(sortedMS(closed, sample.latency), 50) * 1e3
	m["serve.routed_us"] = routed
	m["serve.service_p99_ms"] = percentile(sortedMS(open, sample.service), 99)
	m["serve.p999_ms"] = percentile(sortedMS(open, sample.latency), 99.9)
	m["gen.late_p50_ms"] = percentile(sortedMS(open, sample.late), 50)
	m["gen.late_p99_ms"] = percentile(sortedMS(open, sample.late), 99)
	m["serve.cache_hit_frac"] = ratio(delta("serve_shard_cache_hits"), delta("serve_shard_cache_hits")+delta("serve_shard_cache_misses"))
	m["serve.cache_evictions"] = delta("serve_shard_cache_evictions")
	m["serve.stray_fills"] = delta("serve_shard_stray_fills")
	m["serve.failovers"] = delta("serve_failover_total")
	m["serve.forward_errors"] = delta("serve_forward_errors")
	m["serve.shed"] = delta("serve_shard_shed_total")
	m["serve.degraded"] = delta("serve_shard_degraded_total")
	m["serve.not_owned"] = delta("serve_shard_not_owned")
	t.check(m["serve.not_owned"] == 0, "serve_shard_not_owned = %g", m["serve.not_owned"])
	memMetrics(m, mem0, mem1, float64(len(closed)+len(open)), phase)

	setup := rec.begin("setup", -1)
	env, err = setupServe(spec, seed, dir, rec, setup)
	rec.end(setup)
	if err != nil {
		return nil, err
	}
	defer env.close()
	loop := rec.begin("closed_loop", -1)
	traced := closedLoop(httpClients, forDuration(dur/5), env.sender(seed, "closed", t, nil, loop))
	rec.end(loop)
	m["trace.overhead_frac"] = ratio(percentile(sortedMS(traced, sample.latency), 50)*1e3, routed)

	err = serveProbes(m, env, seed, rec, t)
	m["serve.router_hop_us"] = routed - m["serve.solo_http_us"]
	return m, err
}
