package mr

import (
	"reflect"
	"strings"
	"testing"

	"dwmaxerr/internal/chaos"
)

// Shared-memory worker coverage: counter parity with the Local engine,
// chaos failpoints on the in-memory path, detach-triggered retries, and
// clean shutdown. Output and shuffle-volume invariance across every fleet
// mix lives in the engine table of conformance_test.go.

// startLocalCluster builds a coordinator served entirely by shared-memory
// workers. Attach is synchronous, so no WaitForWorkers is needed.
func startLocalCluster(t *testing.T, workers int) *Coordinator {
	t.Helper()
	c, err := NewCoordinator("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	for i := 0; i < workers; i++ {
		name := "shm" + string(rune('0'+i))
		if _, err := c.AttachLocalWorker(name); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestLocalWorkerCountersMatchLocal(t *testing.T) {
	c := startLocalCluster(t, 2)
	params := MustGobEncode(faultJobParams{Texts: []string{"a b a", "c c", "a d e"}})
	clusterRes, err := runRegistered(c, "fault-count", params)
	if err != nil {
		t.Fatal(err)
	}
	localRes := localRunOf(t, "fault-count", params)
	if !reflect.DeepEqual(countsOf(clusterRes), countsOf(localRes)) {
		t.Fatalf("cluster %v != local %v", countsOf(clusterRes), countsOf(localRes))
	}
	if !reflect.DeepEqual(clusterRes.Metrics.UserCounters, localRes.Metrics.UserCounters) {
		t.Fatalf("user counters: cluster %v != local %v",
			clusterRes.Metrics.UserCounters, localRes.Metrics.UserCounters)
	}
}

func TestLocalWorkerTaskFailureSurfaces(t *testing.T) {
	c := startLocalCluster(t, 2)
	_, err := runRegistered(c, "tcp-flaky", nil)
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("err = %v, want worker panic error", err)
	}
}

// TestLocalWorkerChaosTaskFail: a Fail at mr.worker.task kills one
// shared-memory worker; its task is reassigned to the survivor and the
// job still completes correctly.
func TestLocalWorkerChaosTaskFail(t *testing.T) {
	in, err := chaos.New(3, chaosWorkerTask+":drop#1")
	if err != nil {
		t.Fatal(err)
	}
	chaos.Enable(in)
	defer chaos.Disable()
	c := startLocalCluster(t, 2)
	res, err := runRegistered(c, "tcp-wordcount", MustGobEncode([]string{"a a", "b", "c c"}))
	if err != nil {
		t.Fatal(err)
	}
	if in.Fired(chaosWorkerTask) == 0 {
		t.Fatal("chaos rule never fired")
	}
	want := map[string]uint64{"a": 2, "b": 1, "c": 2}
	if got := countsOf(res); !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

// TestLocalWorkerChaosSendFails: Fail actions at the reply handoff
// (mr.worker.send) and at the coordinator-side task handoff
// (mr.coord.send) are both survived via reassignment.
func TestLocalWorkerChaosSendFails(t *testing.T) {
	for _, point := range []string{chaosWorkerSend, chaosCoordSend} {
		t.Run(point, func(t *testing.T) {
			in, err := chaos.New(5, point+":drop#1")
			if err != nil {
				t.Fatal(err)
			}
			chaos.Enable(in)
			defer chaos.Disable()
			c := startLocalCluster(t, 2)
			res, err := runRegistered(c, "tcp-wordcount", MustGobEncode([]string{"p q", "q"}))
			if err != nil {
				t.Fatal(err)
			}
			if in.Fired(point) == 0 {
				t.Fatal("chaos rule never fired")
			}
			want := map[string]uint64{"p": 1, "q": 2}
			if got := countsOf(res); !reflect.DeepEqual(got, want) {
				t.Fatalf("got %v want %v", got, want)
			}
		})
	}
}

// TestLocalWorkerDetach: detaching one worker mid-fleet leaves the
// survivor to run the whole job; detaching twice is harmless.
func TestLocalWorkerDetach(t *testing.T) {
	c, err := NewCoordinator("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	detach, err := c.AttachLocalWorker("doomed")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AttachLocalWorker("survivor"); err != nil {
		t.Fatal(err)
	}
	detach()
	detach()
	res, err := runRegistered(c, "tcp-wordcount", MustGobEncode([]string{"a a", "b"}))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{"a": 2, "b": 1}
	if got := countsOf(res); !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestAttachLocalWorkerAfterClose(t *testing.T) {
	c, err := NewCoordinator("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := c.AttachLocalWorker("late"); err == nil {
		t.Fatal("attach after close accepted")
	}
}

// TestLocalWorkerRepeatedRuns: the same shared-memory fleet serves many
// jobs back to back (the loop exercises task-channel reuse and the
// pending-reply reset between runs).
func TestLocalWorkerRepeatedRuns(t *testing.T) {
	c := startLocalCluster(t, 2)
	for i := 0; i < 5; i++ {
		res, err := runRegistered(c, "tcp-wordcount", MustGobEncode([]string{"m n", "n"}))
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		want := map[string]uint64{"m": 1, "n": 2}
		if got := countsOf(res); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: got %v", i, got)
		}
	}
}
