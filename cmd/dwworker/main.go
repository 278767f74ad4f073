// Command dwworker runs one MapReduce worker process or the coordinator of
// a TCP cluster.
//
// Start a coordinator that builds a synopsis once enough workers joined:
//
//	dwworker -coordinate :7077 -workers 3 -data nyct.bin -budget 4096 \
//	         -subtree 1024 -algo dgreedyabs
//
// Start workers (on any machine that can reach the coordinator and the
// shared data path):
//
//	dwworker -join host:7077 -name w1
//
// Workers heartbeat the coordinator and drain gracefully on SIGINT/SIGTERM
// or on the coordinator's shutdown broadcast. The coordinator detects
// silent workers via heartbeats (-heartbeat-timeout), bounds attempts with
// a per-task deadline (-task-timeout), and can speculatively re-execute
// straggling tasks (-speculate).
//
// Supported -algo values: con (conventional synopsis, Appendix A.1) and
// dgreedyabs (the paper's Algorithm 6, all four jobs on the cluster). Both
// are the ordinary dist drivers with the coordinator as their engine.
//
// A co-located deployment can skip TCP framing entirely: -local N attaches
// N shared-memory workers inside the coordinator process (tasks and
// replies cross an in-memory channel, no serialization, and the workers
// run the driver's job by pointer). -workers counts
// TCP joiners on top of those: pass -workers 0 to run with only
// shared-memory workers, or combine both for a mixed fleet:
//
//	dwworker -coordinate :7077 -workers 0 -local 4 -data nyct.bin
//
// For resilience drills, -chaos seed,spec arms the deterministic fault
// injector (see internal/chaos) in this process, -reconnect-max lets a
// worker survive coordinator connection loss by re-dialing with jittered
// backoff, and -rejoin-grace makes a coordinator tolerate a transient
// all-workers-dead window while they re-dial:
//
//	dwworker -join host:7077 -name w1 -reconnect-max 8 \
//	         -chaos '42,mr.worker.send:corrupt#3'
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"dwmaxerr/internal/chaos"
	"dwmaxerr/internal/dist"
	"dwmaxerr/internal/mr"
	"dwmaxerr/internal/obs"
)

func main() {
	var (
		join      = flag.String("join", "", "coordinator address to join as a worker")
		name      = flag.String("name", "worker", "worker name")
		coord     = flag.String("coordinate", "", "listen address for coordinator mode")
		workers   = flag.Int("workers", 1, "coordinator: workers to wait for")
		data      = flag.String("data", "", "coordinator: binary float64 dataset path (shared with workers)")
		budget    = flag.Int("budget", 0, "coordinator: synopsis size B (default N/8)")
		subtree   = flag.Int("subtree", 1024, "coordinator: sub-tree leaves per map task")
		algo      = flag.String("algo", "dgreedyabs", "coordinator: algorithm (con or dgreedyabs)")
		timeout   = flag.Duration("timeout", time.Minute, "coordinator: worker join timeout")
		taskTO    = flag.Duration("task-timeout", 0, "coordinator: per-task attempt deadline (0 = default 2m)")
		hbTO      = flag.Duration("heartbeat-timeout", 0, "coordinator: heartbeat silence before a worker is declared dead (0 = default 3s)")
		speculate = flag.Duration("speculate", 0, "coordinator: launch a backup attempt for tasks in flight longer than this (0 = off)")
		metrics   = flag.String("metrics", "", "serve /debug/vars and /debug/pprof on this address (e.g. 127.0.0.1:0)")
		tracePath = flag.String("trace", "", "coordinator: write the job span tree as Chrome trace-event JSON to this path")
		chaosSpec = flag.String("chaos", "", "arm the fault injector: 'seed,point:fault[=dur][@prob][#nth][xmax];...'")
		reconnMax = flag.Int("reconnect-max", 0, "worker: consecutive failed re-dials before giving up (0 = exit on connection loss)")
		rejoin    = flag.Duration("rejoin-grace", 0, "coordinator: tolerate an all-workers-dead window this long while workers re-dial (0 = fail fast)")
		localW    = flag.Int("local", 0, "coordinator: shared-memory workers to run in-process (skip TCP framing for co-located workers)")
	)
	flag.Parse()

	if *chaosSpec != "" {
		if err := chaos.EnableSpec(*chaosSpec); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "dwworker: chaos armed: %s\n", *chaosSpec)
	}

	if *metrics != "" {
		if err := serveMetrics(*metrics); err != nil {
			fatal(err)
		}
	}

	switch {
	case *join != "":
		fmt.Fprintf(os.Stderr, "dwworker: joining %s as %q (jobs: %v)\n", *join, *name, mr.RegisteredJobs())
		// Translate SIGINT/SIGTERM into a graceful stop: the worker finishes
		// its in-flight task, the connection closes, and Serve returns nil.
		stop := make(chan struct{})
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sig
			fmt.Fprintln(os.Stderr, "dwworker: signal received, draining")
			close(stop)
		}()
		if err := mr.ServeWorker(*join, *name, stop, mr.WorkerOptions{
			ReconnectMax: *reconnMax,
		}); err != nil {
			fatal(err)
		}
	case *coord != "":
		if *data == "" {
			fatal(fmt.Errorf("-data is required in coordinator mode"))
		}
		src, err := dist.NewFileSource(*data)
		if err != nil {
			fatal(err)
		}
		b := *budget
		if b == 0 {
			b = src.N() / 8
		}
		c, err := mr.NewCoordinator(*coord)
		if err != nil {
			fatal(err)
		}
		defer c.Close()
		c.TaskTimeout = *taskTO
		c.HeartbeatTimeout = *hbTO
		c.SpeculationAfter = *speculate
		c.RejoinGrace = *rejoin
		var tracer *obs.Tracer
		var root *obs.Span
		if *tracePath != "" {
			tracer = obs.NewTracer()
			root = tracer.Start("dwworker:" + *algo)
			c.Options = mr.JobOptions{Trace: root}
		}
		for i := 0; i < *localW; i++ {
			if _, err := c.AttachLocalWorker(fmt.Sprintf("local%d", i)); err != nil {
				fatal(err)
			}
		}
		// -workers counts TCP joiners on top of the -local fleet; the
		// attached shared-memory workers are already live, so the wait
		// target is the combined fleet size.
		if *workers > 0 {
			fmt.Fprintf(os.Stderr, "dwworker: coordinating on %s, waiting for %d workers\n", c.Addr(), *workers)
			if err := c.WaitForWorkers(*localW+*workers, *timeout); err != nil {
				fatal(err)
			}
		}
		t0 := time.Now()
		var rep *dist.Report
		// The coordinator is an engine like any other: the drivers are the
		// ones every engine runs, and src being a file is what lets the TCP
		// workers rebuild its jobs.
		cfg := dist.Config{Engine: c, SubtreeLeaves: *subtree}
		switch *algo {
		case "con":
			rep, err = dist.CON(src, b, cfg)
		case "dgreedyabs":
			rep, err = dist.DGreedyAbs(src, b, cfg)
		default:
			fatal(fmt.Errorf("unknown -algo %q (con, dgreedyabs)", *algo))
		}
		if err != nil {
			fatal(err)
		}
		if *tracePath != "" {
			root.End()
			if err := tracer.WriteChromeTraceFile(*tracePath); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "dwworker: trace written to %s\n", *tracePath)
		}
		var shuffled int64
		var mapRetries, reduceRetries int
		counters := map[string]int64{}
		for _, j := range rep.Jobs {
			shuffled += j.ShuffleBytes
			mapRetries += j.MapRetries
			reduceRetries += j.ReduceRetries
			for k, v := range j.UserCounters {
				counters[k] += v
			}
		}
		fmt.Printf("%s synopsis: %d coefficients in %v (%d jobs, %d bytes shuffled, max_abs %.4g)\n",
			*algo, rep.Synopsis.Size(), time.Since(t0).Round(time.Millisecond),
			len(rep.Jobs), shuffled, rep.MaxErr)
		fmt.Printf("retries: %d map, %d reduce\n", mapRetries, reduceRetries)
		names := make([]string, 0, len(counters))
		for k := range counters {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Printf("  counter %s = %d\n", k, counters[k])
		}
		for i, term := range rep.Synopsis.Terms {
			if i >= 10 {
				fmt.Printf("... (%d more)\n", rep.Synopsis.Size()-10)
				break
			}
			fmt.Printf("  c[%d] = %g\n", term.Index, term.Value)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// serveMetrics exposes /debug/vars and /debug/pprof on addr in the
// background, printing the bound address (addr may use port 0) so test
// harnesses can scrape it.
func serveMetrics(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	obs.Mount(mux, obs.Default)
	fmt.Fprintf(os.Stderr, "dwworker: metrics on http://%s/debug/vars\n", ln.Addr())
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			fmt.Fprintln(os.Stderr, "dwworker: metrics server:", err)
		}
	}()
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dwworker:", err)
	os.Exit(1)
}
