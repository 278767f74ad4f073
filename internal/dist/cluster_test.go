package dist

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"dwmaxerr/internal/dataset"
	"dwmaxerr/internal/mr"
	"dwmaxerr/internal/obs"
)

// fleet starts a coordinator with tcp loopback workers plus shm
// shared-memory workers.
func fleet(t *testing.T, tcp, shm int) *mr.Coordinator {
	t.Helper()
	c, err := mr.NewCoordinator("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	for i := 0; i < tcp; i++ {
		go mr.Serve(c.Addr(), "worker", stop)
	}
	if err := c.WaitForWorkers(tcp, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < shm; i++ {
		if _, err := c.AttachLocalWorker("shm"); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func saveData(t *testing.T, data []float64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.bin")
	if err := dataset.SaveBinary(path, data); err != nil {
		t.Fatal(err)
	}
	return path
}

// sameRun fails unless got is the run want was: the same synopsis term for
// term, the same measured error, and per job the same shuffle volume and
// user counters.
func sameRun(t *testing.T, what string, got, want *Report) {
	t.Helper()
	if !reflect.DeepEqual(got.Synopsis.Terms, want.Synopsis.Terms) || got.MaxErr != want.MaxErr {
		t.Fatalf("%s: synopsis diverged (max err %g vs %g):\ngot  %v\nwant %v",
			what, got.MaxErr, want.MaxErr, termIndices(got.Synopsis), termIndices(want.Synopsis))
	}
	if len(got.Jobs) != len(want.Jobs) {
		t.Fatalf("%s: ran %d jobs, want %d", what, len(got.Jobs), len(want.Jobs))
	}
	for i, g := range got.Jobs {
		w := want.Jobs[i]
		if g.ShuffleRecords != w.ShuffleRecords || g.ShuffleBytes != w.ShuffleBytes {
			t.Fatalf("%s: job %s shuffled %d records / %d bytes, want %d / %d",
				what, g.Job, g.ShuffleRecords, g.ShuffleBytes, w.ShuffleRecords, w.ShuffleBytes)
		}
		if !reflect.DeepEqual(g.UserCounters, w.UserCounters) {
			t.Fatalf("%s: job %s counters %v, want %v", what, g.Job, g.UserCounters, w.UserCounters)
		}
	}
}

// TestAlgorithmsConformAcrossEngines: the engine is an execution detail.
// CON and DGreedyAbs over a dataset file must come out identical — synopsis,
// error, shuffle volume, counters — on every engine and fleet mix, and
// through the *Cluster wrappers. Each engine offers 4 slots and DGreedyAbs
// runs 4 reducers, so under -race this is also the regression test for
// state shared between parallel reduce tasks (the makeCombineResults race).
func TestAlgorithmsConformAcrossEngines(t *testing.T) {
	data := randData(301, 512, 1000)
	path := saveData(t, data)
	src, err := NewFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	conCfg := Config{SubtreeLeaves: 16}
	// Fix the bucket width so every run uses identical parameters.
	dgCfg := Config{SubtreeLeaves: 32, BucketWidth: 0.25, Reducers: 4}
	wantCON, err := CON(SliceSource(data), 32, conCfg)
	if err != nil {
		t.Fatal(err)
	}
	wantDG, err := DGreedyAbs(SliceSource(data), 64, dgCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantDG.Jobs) != 4 || wantDG.Jobs[1].ReduceTasks != 4 {
		t.Fatalf("reference DGreedyAbs: %d jobs, %d hist reducers; want 4 and 4", len(wantDG.Jobs), wantDG.Jobs[1].ReduceTasks)
	}

	tcp := fleet(t, 4, 0)
	engines := map[string]mr.Engine{
		"local":       &mr.Local{Workers: 4},
		"local+spill": &mr.Local{Workers: 4, SpillThreshold: 32, SpillDir: t.TempDir()},
		"coord+tcp":   tcp,
		"coord+shm":   fleet(t, 0, 4),
		"coord+mixed": fleet(t, 2, 2),
	}
	for name, eng := range engines {
		t.Run(name, func(t *testing.T) {
			cfg := conCfg
			cfg.Engine = eng
			got, err := CON(src, 32, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sameRun(t, "CON", got, wantCON)
			cfg = dgCfg
			cfg.Engine = eng
			if got, err = DGreedyAbs(src, 64, cfg); err != nil {
				t.Fatal(err)
			}
			sameRun(t, "DGreedyAbs", got, wantDG)
		})
	}
	t.Run("wrappers", func(t *testing.T) {
		got, err := CONCluster(tcp, path, 32, 16)
		if err != nil {
			t.Fatal(err)
		}
		sameRun(t, "CONCluster", got, wantCON)
		if got, err = DGreedyAbsCluster(tcp, path, 64, 32, 0.25); err != nil {
			t.Fatal(err)
		}
		sameRun(t, "DGreedyAbsCluster", got, wantDG)
	})
}

// TestInMemorySourceNeedsSharedMemory: a SliceSource exists only in the
// driver, so its jobs carry no registry reference — they run on a
// shared-memory fleet and are refused while a TCP worker is live.
func TestInMemorySourceNeedsSharedMemory(t *testing.T) {
	data := randData(91, 256, 1000)
	want, err := CON(SliceSource(data), 32, Config{SubtreeLeaves: 16})
	if err != nil {
		t.Fatal(err)
	}
	got, err := CON(SliceSource(data), 32, Config{SubtreeLeaves: 16, Engine: fleet(t, 0, 2)})
	if err != nil {
		t.Fatal(err)
	}
	sameRun(t, "CON on shared memory", got, want)
	if _, err := CON(SliceSource(data), 32, Config{SubtreeLeaves: 16, Engine: fleet(t, 1, 0)}); err == nil {
		t.Fatal("a closure-built job ran on a TCP worker")
	}
}

// TestClusterDGreedyAbsHonoursConfig pins what the forked cluster driver
// had drifted on: Config.Reducers (default 4) and Config.Trace mean on a
// coordinator what they mean on Local.
func TestClusterDGreedyAbsHonoursConfig(t *testing.T) {
	path := saveData(t, randData(301, 512, 1000))
	c := fleet(t, 2, 0)
	tracer := obs.NewTracer()
	root := tracer.Start("test")
	for _, tc := range []struct{ reducers, want int }{{0, 4}, {2, 2}} {
		rep, err := DGreedyAbsClusterWith(c, path, 64, Config{SubtreeLeaves: 32, Reducers: tc.reducers, Trace: root})
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.Jobs[1].ReduceTasks; got != tc.want {
			t.Fatalf("Reducers %d: histogram job ran %d reduce tasks, want %d", tc.reducers, got, tc.want)
		}
	}
	root.End()
	algs := root.Children()
	if len(algs) != 2 {
		t.Fatalf("Config.Trace received %d spans, want one dgreedy-abs span per run", len(algs))
	}
	for _, alg := range algs {
		if alg.Name() != "dgreedy-abs" || len(alg.Children()) != 4 {
			t.Fatalf("span %q has %d children, want dgreedy-abs over its 4 job spans", alg.Name(), len(alg.Children()))
		}
	}
}

// TestDGreedyAbsResumesFromEarlierStore: testdata/checkpoint_pr12 holds the
// histogram record the driver wrote before the cluster fork was folded into
// it (PR 12's DGreedyAbs, 4 reducers, on the data below). Today's driver
// must find it under the same key and decode it — on Local and on a
// coordinator — and must itself write that record byte for byte.
func TestDGreedyAbsResumesFromEarlierStore(t *testing.T) {
	data := make([]float64, 256)
	for i := range data {
		data[i] = float64((i*7919)%1000) / 4
	}
	golden, err := filepath.Glob("testdata/checkpoint_pr12/*.ck")
	if err != nil || len(golden) != 1 {
		t.Fatalf("golden store: %v, %v", golden, err)
	}
	want, err := os.ReadFile(golden[0])
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{SubtreeLeaves: 32, BucketWidth: 0.25}
	plain, err := DGreedyAbs(SliceSource(data), 48, cfg)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewFileSource(saveData(t, data))
	if err != nil {
		t.Fatal(err)
	}
	for name, eng := range map[string]mr.Engine{"local": &mr.Local{}, "coord+shm": fleet(t, 0, 2)} {
		// Resume from a copy of the old store: one hit, the histogram job skipped.
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(golden[0])), want, 0o644); err != nil {
			t.Fatal(err)
		}
		store, err := NewFileCheckpoint(dir)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Engine, cfg.Checkpoint = eng, store
		hits0, puts0 := obsCheckpointHits.Value(), obsCheckpointPuts.Value()
		resumed, err := DGreedyAbs(src, 48, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if hits, puts := obsCheckpointHits.Value()-hits0, obsCheckpointPuts.Value()-puts0; hits != 1 || puts != 0 {
			t.Fatalf("%s: %d checkpoint hits / %d puts on the old store, want 1 / 0", name, hits, puts)
		}
		if len(resumed.Jobs) != 3 || resumed.MaxErr != plain.MaxErr || !reflect.DeepEqual(resumed.Synopsis.Terms, plain.Synopsis.Terms) {
			t.Fatalf("%s: resumed run: %d jobs, max err %g; want 3 jobs and the plain run's synopsis (max err %g)",
				name, len(resumed.Jobs), resumed.MaxErr, plain.MaxErr)
		}
		// A cold store ends up holding exactly the old bytes under the old name.
		cold := t.TempDir()
		if cfg.Checkpoint, err = NewFileCheckpoint(cold); err != nil {
			t.Fatal(err)
		}
		if _, err := DGreedyAbs(src, 48, cfg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := os.ReadFile(filepath.Join(cold, filepath.Base(golden[0])))
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: record written today differs from the earlier store's (%v)", name, err)
		}
	}
}

func TestCONClusterValidation(t *testing.T) {
	c, err := mr.NewCoordinator("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := CONCluster(c, "/nonexistent", 10, 8); err == nil {
		t.Fatal("missing file accepted")
	}
	path := filepath.Join(t.TempDir(), "d.bin")
	if err := dataset.SaveBinary(path, make([]float64, 64)); err != nil {
		t.Fatal(err)
	}
	if _, err := CONCluster(c, path, 0, 8); err == nil {
		t.Fatal("budget 0 accepted")
	}
}

func TestDGreedyAbsClusterValidation(t *testing.T) {
	c, err := mr.NewCoordinator("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := DGreedyAbsCluster(c, "/missing", 8, 4, 0); err == nil {
		t.Fatal("missing file accepted")
	}
	path := filepath.Join(t.TempDir(), "d.bin")
	if err := dataset.SaveBinary(path, make([]float64, 64)); err != nil {
		t.Fatal(err)
	}
	if _, err := DGreedyAbsCluster(c, path, 0, 8, 0); err == nil {
		t.Fatal("budget 0 accepted")
	}
}
