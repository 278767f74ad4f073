package mr

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func init() {
	RegisterJob("tcp-wordcount", func(params []byte) (*Job, error) {
		var texts []string
		if err := GobDecode(params, &texts); err != nil {
			return nil, err
		}
		return wordCountJob(texts, 2), nil
	})
	RegisterJob("tcp-flaky", func(params []byte) (*Job, error) {
		job := wordCountJob([]string{"a a b"}, 1)
		job.Map = func(ctx TaskContext, split Split, emit Emit) error {
			panic("worker-side failure")
		}
		return job, nil
	})
}

func startCluster(t *testing.T, workers int) *Coordinator {
	t.Helper()
	c, err := NewCoordinator("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	for i := 0; i < workers; i++ {
		name := "w" + string(rune('0'+i))
		go Serve(c.Addr(), name, stop)
	}
	if err := c.WaitForWorkers(workers, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	return c
}

// runRegistered builds a registered job and runs it on c — what a driver
// holding only (name, params) does.
func runRegistered(c *Coordinator, name string, params []byte) (*Result, error) {
	job, err := LookupJob(name, params)
	if err != nil {
		return nil, err
	}
	return c.Run(job)
}

func TestClusterSingleWorkerHandlesAllTasks(t *testing.T) {
	c := startCluster(t, 1)
	res, err := runRegistered(c, "tcp-wordcount", MustGobEncode([]string{"x y", "y z", "z z"}))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{"x": 1, "y": 2, "z": 3}
	if got := countsOf(res); !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
}

func TestClusterTaskFailureSurfaces(t *testing.T) {
	c := startCluster(t, 2)
	_, err := runRegistered(c, "tcp-flaky", nil)
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("err = %v, want worker panic error", err)
	}
}

func TestClusterUnknownJob(t *testing.T) {
	c := startCluster(t, 1)
	if _, err := runRegistered(c, "no-such-job", nil); err == nil {
		t.Fatal("unknown job accepted")
	}
}

func TestClusterWaitForWorkersTimeout(t *testing.T) {
	c, err := NewCoordinator("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitForWorkers(1, 30*time.Millisecond); err == nil {
		t.Fatal("want timeout error")
	}
}

func TestClusterSurvivesWorkerDeath(t *testing.T) {
	c, err := NewCoordinator("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stopA := make(chan struct{})
	stopB := make(chan struct{})
	defer close(stopB)
	go Serve(c.Addr(), "doomed", stopA)
	go Serve(c.Addr(), "survivor", stopB)
	if err := c.WaitForWorkers(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// Kill one worker before the job: its connection drops, the first task
	// sent to it fails, and the coordinator reassigns to the survivor.
	close(stopA)
	time.Sleep(20 * time.Millisecond)
	res, err := runRegistered(c, "tcp-wordcount", MustGobEncode([]string{"a a", "b", "c c"}))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{"a": 2, "b": 1, "c": 2}
	if got := countsOf(res); !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestClusterAllWorkersDead(t *testing.T) {
	c, err := NewCoordinator("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.TaskTimeout = 200 * time.Millisecond
	stop := make(chan struct{})
	go Serve(c.Addr(), "w", stop)
	if err := c.WaitForWorkers(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	close(stop)
	time.Sleep(20 * time.Millisecond)
	if _, err := runRegistered(c, "tcp-wordcount", MustGobEncode([]string{"x"})); err == nil {
		t.Fatal("job succeeded with every worker dead")
	}
}
