package mr

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"dwmaxerr/internal/obs"
)

// Engine conformance: every engine runs the same *Job through the same
// pipeline, so for any job the partitions must be byte-identical and the
// shuffle volume and user counters equal, whichever executor ran the
// attempts. One table: jobs × engines.

func init() {
	// Word count with a combiner and user counters on both sides.
	RegisterJob("conf-wordcount", func(params []byte) (*Job, error) {
		var texts []string
		if err := GobDecode(params, &texts); err != nil {
			return nil, err
		}
		job := wordCountJob(texts, 3)
		inner, innerRed := job.Map, job.Reduce
		job.Map = func(ctx TaskContext, split Split, emit Emit) error {
			ctx.Counters.Add("conf.words", int64(len(strings.Fields(string(split.Payload)))))
			return inner(ctx, split, emit)
		}
		job.Reduce = func(ctx TaskContext, key []byte, values [][]byte, emit Emit) error {
			ctx.Counters.Add("conf.groups", 1)
			return innerRed(ctx, key, values, emit)
		}
		job.Combine = innerRed
		return job, nil
	})
	// Identity: no reducer, map output passes through sorted.
	RegisterJob("conf-identity", func(params []byte) (*Job, error) {
		var texts []string
		if err := GobDecode(params, &texts); err != nil {
			return nil, err
		}
		job := wordCountJob(texts, 2)
		job.Reduce = nil
		return job, nil
	})
	// Custom Partition (by first byte) and Compare (descending).
	RegisterJob("conf-custom", func(params []byte) (*Job, error) {
		var texts []string
		if err := GobDecode(params, &texts); err != nil {
			return nil, err
		}
		job := wordCountJob(texts, 2)
		job.Partition = func(key []byte, n int) int { return int(key[0]) % n }
		job.Compare = func(a, b []byte) int { return bytes.Compare(b, a) }
		return job, nil
	})
	// Word count whose first attempt of map task 0 fails — an injection
	// that needs no engine hook, so it is the same fault on every engine.
	RegisterJob("conf-flaky", func(params []byte) (*Job, error) {
		var texts []string
		if err := GobDecode(params, &texts); err != nil {
			return nil, err
		}
		job := wordCountJob(texts, 2)
		inner := job.Map
		job.Map = func(ctx TaskContext, split Split, emit Emit) error {
			if ctx.TaskID == 0 && ctx.Attempt == 1 {
				return errors.New("injected first-attempt failure")
			}
			return inner(ctx, split, emit)
		}
		return job, nil
	})
}

// conformanceEngines builds the engine table. Every coordinator serves
// three slots, like the Local rows.
func conformanceEngines(t *testing.T) map[string]TracingEngine {
	t.Helper()
	mixed, err := NewCoordinator("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mixed.Close() })
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	go Serve(mixed.Addr(), "tcp-w", stop)
	if err := mixed.WaitForWorkers(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"shm0", "shm1"} {
		if _, err := mixed.AttachLocalWorker(name); err != nil {
			t.Fatal(err)
		}
	}
	return map[string]TracingEngine{
		"local":       &Local{Workers: 3},
		"local+spill": &Local{Workers: 3, SpillThreshold: 4, SpillDir: t.TempDir()},
		"coord+tcp":   startCluster(t, 3),
		"coord+shm":   startLocalCluster(t, 3),
		"coord+mixed": mixed,
	}
}

func TestEngineConformance(t *testing.T) {
	texts := []string{"the quick brown fox", "jumps over the lazy dog", "the end", "", "dog dog the"}
	params := MustGobEncode(texts)
	engines := conformanceEngines(t)
	for _, jobName := range []string{"conf-wordcount", "conf-identity", "conf-custom", "conf-flaky"} {
		want := localRunOf(t, jobName, params)
		for engName, eng := range engines {
			t.Run(jobName+"/"+engName, func(t *testing.T) {
				retries0, dups0 := obsTaskRetries.Value(), obsTaskCommitDups.Value()
				job, err := LookupJob(jobName, params) // a fresh Job per run
				if err != nil {
					t.Fatal(err)
				}
				got, err := eng.Run(job)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Partitions, want.Partitions) {
					t.Fatalf("partitions differ:\ngot  %v\nwant %v", got.Partitions, want.Partitions)
				}
				if !reflect.DeepEqual(got.Metrics.UserCounters, want.Metrics.UserCounters) {
					t.Fatalf("user counters: got %v want %v", got.Metrics.UserCounters, want.Metrics.UserCounters)
				}
				// A combiner may run any number of times: the spill shuffle
				// combines per run, so only there may the volume differ.
				if !(job.Combine != nil && engName == "local+spill") {
					if got.Metrics.ShuffleRecords != want.Metrics.ShuffleRecords || got.Metrics.ShuffleBytes != want.Metrics.ShuffleBytes {
						t.Fatalf("shuffle volume: got %d records / %d bytes, want %d / %d",
							got.Metrics.ShuffleRecords, got.Metrics.ShuffleBytes,
							want.Metrics.ShuffleRecords, want.Metrics.ShuffleBytes)
					}
				}
				wantRetries := 0
				if jobName == "conf-flaky" {
					wantRetries = 1
					var task0 []TaskStat
					for _, st := range got.Metrics.MapStats {
						if st.TaskID == 0 {
							task0 = append(task0, st)
						}
					}
					if len(task0) != 2 || task0[0].Attempt != 1 || !task0[0].Failed || task0[1].Attempt != 2 || task0[1].Failed {
						t.Fatalf("map task 0 attempts = %+v, want attempt 1 failed then attempt 2 committed", task0)
					}
				}
				if got.Metrics.MapRetries != wantRetries || got.Metrics.ReduceRetries != 0 {
					t.Fatalf("retries: %d map / %d reduce, want %d / 0", got.Metrics.MapRetries, got.Metrics.ReduceRetries, wantRetries)
				}
				if d := obsTaskRetries.Value() - retries0; d != int64(wantRetries) {
					t.Fatalf("mr_task_retries delta = %d, want %d", d, wantRetries)
				}
				if d := obsTaskCommitDups.Value() - dups0; d != 0 {
					t.Fatalf("mr_task_commit_dups delta = %d, want 0", d)
				}
				if len(got.Metrics.MapStats) != len(texts)+wantRetries {
					t.Fatalf("%d map attempts recorded, want %d", len(got.Metrics.MapStats), len(texts)+wantRetries)
				}
			})
		}
	}
}

// TestJobWithoutRegistryReference: a Job assembled from closures names
// nothing a remote worker could rebuild. It runs wherever the driver's
// memory is shared and is refused, clearly, while a TCP worker is live.
func TestJobWithoutRegistryReference(t *testing.T) {
	texts := []string{"a b a", "c"}
	want := map[string]uint64{"a": 2, "b": 1, "c": 1}

	res, err := startLocalCluster(t, 2).Run(wordCountJob(texts, 2))
	if err != nil {
		t.Fatalf("shared-memory fleet: %v", err)
	}
	if got := countsOf(res); !reflect.DeepEqual(got, want) {
		t.Fatalf("shared-memory fleet: got %v want %v", got, want)
	}

	_, err = startCluster(t, 2).Run(wordCountJob(texts, 2))
	if err == nil || !strings.Contains(err.Error(), "has no registry reference") {
		t.Fatalf("TCP fleet: err = %v, want the no-registry-reference error", err)
	}
}

// TestCoordinatorTraceFallsBackToOptions: a RunWith whose own Trace is nil
// records under Coordinator.Options.Trace — a "job:" span whose children
// are the phase spans — and an explicit Trace wins over it.
func TestCoordinatorTraceFallsBackToOptions(t *testing.T) {
	c := startLocalCluster(t, 2)
	tracer := obs.NewTracer()
	roots := map[string]*obs.Span{"fallback": tracer.Start("fallback"), "explicit": tracer.Start("explicit")}
	c.Options.Trace = roots["fallback"]
	if _, err := c.RunWith(wordCountJob([]string{"a b", "b"}, 2), JobOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunWith(wordCountJob([]string{"a b", "b"}, 2), JobOptions{Trace: roots["explicit"]}); err != nil {
		t.Fatal(err)
	}
	names := func(spans []*obs.Span) (out []string) {
		for _, s := range spans {
			out = append(out, s.Name())
		}
		return out
	}
	for name, root := range roots {
		root.End()
		jobs := root.Children()
		if got := names(jobs); !reflect.DeepEqual(got, []string{"job:wordcount"}) {
			t.Fatalf("%s: children = %v, want exactly one job:wordcount span", name, got)
		}
		if got, want := names(jobs[0].Children()), []string{"map-phase", "shuffle", "reduce-phase"}; !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: job span children = %v, want %v", name, got, want)
		}
	}
}
