package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"time"

	"dwmaxerr"
	"dwmaxerr/internal/dist"
	"dwmaxerr/internal/dp"
	"dwmaxerr/internal/greedy"
	"dwmaxerr/internal/mr"
	"dwmaxerr/internal/serve"
	"dwmaxerr/internal/wavelet"
)

// The probes time public functions of single packages on the workload's
// own inputs, from outside: what one layer costs when nothing else runs.

// probeTime is how long each probe repeats its call.
const probeTime = 200 * time.Millisecond

// prober runs probes under one recorder and keeps the first error any of
// them met; later probes then do nothing.
type prober struct {
	rec *recorder
	err error
}

// time calls f repeatedly for probeTime (at least three times) under a
// span and returns the median nanoseconds of one call.
func (p *prober) time(name string, f func() error) float64 {
	if p.err != nil {
		return 0
	}
	id := p.rec.begin("probe:"+name, -1)
	defer p.rec.end(id)
	var ns []float64
	start := time.Now()
	for len(ns) < 3 || time.Since(start) < probeTime {
		t0 := time.Now()
		if err := f(); err != nil {
			p.err = fmt.Errorf("probe %s: %w", name, err)
			return 0
		}
		ns = append(ns, float64(time.Since(t0)))
	}
	return median(ns)
}

// buildProbes fills the kernel metrics of a build workload. last is a
// finished build of the same input: it supplies the final ε and the
// shuffle's record count and widths.
func buildProbes(m map[string]float64, e *buildEnv, last *built, rec *recorder) error {
	p := &prober{rec: rec}
	chunk := e.data[:1<<e.spec.logSub]
	perValue := float64(len(chunk))

	m["wavelet.transform_ns_per_value"] = p.time("wavelet.Transform", func() error {
		_, err := wavelet.Transform(chunk)
		return err
	}) / perValue

	switch e.spec.algo {
	case "dgreedyabs":
		w, err := wavelet.Transform(chunk)
		if err != nil {
			return err
		}
		m["greedy.run_ns_per_value"] = p.time("greedy.RunAbs", func() error {
			_, err := greedy.RunAbs(w, greedy.Options{})
			return err
		}) / perValue
	case "dindirecthaar":
		params := dp.Params{Epsilon: last.maxErr, Delta: e.spec.delta}
		m["dp.minhaarspace_ns_per_value"] = p.time("dp.MinHaarSpace", func() error {
			_, _, err := dp.MinHaarSpace(chunk, params)
			return err
		}) / perValue
	case conCluster:
		src, err := dist.NewFileSource(e.path)
		if err != nil {
			return err
		}
		m["dataset.read_ns_per_value"] = p.time("dist.FileSource.Chunk", func() error {
			_, err := src.Chunk(0, len(chunk))
			return err
		}) / perValue
	}

	if records := int(last.shuffleRecords()); records > 0 {
		width := int(last.shuffleBytes()) / records
		m["mr.shuffle_ns_per_record"] = p.time("mr.Local.Run(identity)", func() error {
			return identityShuffle(records, width)
		}) / float64(records)
	}
	return p.err
}

// identityShuffle pushes `records` records of `width` bytes (8 of them
// key) through the in-process engine with an identity reduce: the
// shuffle's own per-record cost, without any algorithm in the tasks.
func identityShuffle(records, width int) error {
	const splits = 8
	if width < 9 {
		width = 9
	}
	job := &mr.Job{Name: "bench/identity"}
	for s := 0; s < splits; s++ {
		job.Splits = append(job.Splits, mr.Split{ID: s})
	}
	job.Map = func(_ mr.TaskContext, split mr.Split, emit mr.Emit) error {
		rng := rand.New(rand.NewSource(int64(split.ID)))
		key, value := make([]byte, 8), make([]byte, width-8)
		for i := split.ID; i < records; i += splits {
			binary.BigEndian.PutUint64(key, rng.Uint64())
			if err := emit(key, value); err != nil {
				return err
			}
		}
		return nil
	}
	_, err := (&mr.Local{}).Run(job)
	return err
}

// serveProbes fills the kernel and hop metrics of a serve workload.
func serveProbes(m map[string]float64, e *serveEnv, seed int64, rec *recorder, t *tally) error {
	p := &prober{rec: rec}
	rng := rand.New(rand.NewSource(seed))
	store := serve.DirStore{Dir: e.dir}

	var shard *serve.Shard
	var server *serve.Server
	m["serve.shard_load_us"] = p.time("serve.DirStore.Load+New", func() (err error) {
		if shard, err = store.Load(e.keys[0]); err != nil {
			return err
		}
		server, err = serve.New(shard.Syn, shard.MaxAbs)
		return err
	}) / 1e3
	if p.err != nil {
		return p.err
	}

	ev := dwmaxerr.NewEvaluator(shard.Syn)
	n := shard.Syn.N
	m["synopsis.point_ns"] = p.time("synopsis.Evaluator.Point", func() error {
		for i := 0; i < 1000; i++ {
			ev.Point(rng.Intn(n))
		}
		return nil
	}) / 1000
	m["synopsis.range_ns"] = p.time("synopsis.Evaluator.RangeSum", func() error {
		for i := 0; i < 1000; i++ {
			lo, hi := rng.Intn(n), rng.Intn(n)
			if lo > hi {
				lo, hi = hi, lo
			}
			ev.RangeSum(lo, hi)
		}
		return nil
	}) / 1000

	// The workload's query mix against shard 0 alone: its server without
	// any network, then over loopback HTTP without router, link or node.
	solo := *e
	solo.spec.shards = 1
	var buf []byte
	m["serve.answer_us"] = p.time("serve.Server.ServeHTTP", func() error {
		for i := 0; i < 100; i++ {
			var q query
			q, buf = solo.nextQuery(rng, "", buf)
			w := httptest.NewRecorder()
			server.ServeHTTP(w, httptest.NewRequest(http.MethodGet, q.url, nil))
			if w.Code != http.StatusOK {
				return fmt.Errorf("%s answered %d", q.url, w.Code)
			}
		}
		return nil
	}) / 100 / 1e3
	// The router-less paths carry the load phases' concurrency, so that
	// routed minus solo is the hop and not the second client.
	m["serve.solo_http_us"] = p.httpTime("solo serve.Server", &solo, seed, t, server)
	// The generator's own cost: the same clients against a constant
	// answer, which the content check would reject, so it is not tallied.
	m["serve.http_floor_us"] = p.httpTime("http floor", &solo, seed, &tally{},
		http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(`{"index":0,"approx":0,"lo":0,"hi":0}`))
		}))
	return p.err
}

// httpTime serves h on a loopback listener and returns the median
// microseconds of one request of e's query mix in a closed loop.
func (p *prober) httpTime(name string, e *serveEnv, seed int64, t *tally, h http.Handler) float64 {
	if p.err != nil {
		return 0
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.err = err
		return 0
	}
	srv, done := serveHTTP(ln, h)
	defer func() {
		srv.Close()
		<-done
	}()
	direct := *e
	direct.base = "http://" + ln.Addr().String()
	for i := range direct.client {
		direct.client[i] = newClient()
		defer direct.client[i].CloseIdleConnections()
	}
	id := p.rec.begin("probe:"+name, -1)
	defer p.rec.end(id)
	samples := closedLoop(httpClients, forDuration(probeTime), direct.sender(seed, name, t, nil, -1))
	return percentile(sortedMS(samples, sample.latency), 50) * 1e3
}
