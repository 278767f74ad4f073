package mr

import (
	"errors"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"dwmaxerr/internal/chaos"
)

// Self-healing coverage: a worker whose connection dies mid-job re-dials,
// re-registers under its prior name, and the job completes with the same
// output and counters as a fault-free local run — with exactly one
// reconnect and no duplicate commits.

func TestWorkerReconnectsAfterConnectionLoss(t *testing.T) {
	in, err := chaos.New(42, "mr.worker.send:drop#1")
	if err != nil {
		t.Fatal(err)
	}
	chaos.Enable(in)
	defer chaos.Disable()

	c, err := NewCoordinator("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Tolerate the all-dead window while the sole worker re-dials.
	c.RejoinGrace = 5 * time.Second
	t.Cleanup(func() { c.Close() })
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })

	go ServeWorker(c.Addr(), "self-healer", stop, WorkerOptions{
		ReconnectMax:  5,
		ReconnectBase: 10 * time.Millisecond,
		ReconnectCap:  100 * time.Millisecond,
	})
	if err := c.WaitForWorkers(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	reconnects0 := obsWorkerReconnects.Value()
	dups0 := obsTaskCommitDups.Value()
	retries0 := obsTaskRetries.Value()

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

	if d := obsWorkerReconnects.Value() - reconnects0; d != 1 {
		t.Fatalf("mr_worker_reconnects delta = %d, want exactly 1", d)
	}
	if d := obsTaskCommitDups.Value() - dups0; d != 0 {
		t.Fatalf("mr_task_commit_dups delta = %d, want 0", d)
	}
	if d := obsTaskRetries.Value() - retries0; d < 1 {
		t.Fatalf("mr_task_retries delta = %d, want >= 1 (the dropped reply's task)", d)
	}
	if fired := in.Fired(chaosWorkerSend); fired != 1 {
		t.Fatalf("chaos fired %d times at %s, want 1", fired, chaosWorkerSend)
	}
}

// TestWorkerReconnectGivesUp pins the budget: ReconnectMax consecutive
// dial failures after the initial attempt exhaust the worker.
func TestWorkerReconnectGivesUp(t *testing.T) {
	// Grab a port that is guaranteed closed.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	start := time.Now()
	err = ServeWorker(addr, "orphan", nil, WorkerOptions{
		ReconnectMax:  2,
		ReconnectBase: 5 * time.Millisecond,
		ReconnectCap:  20 * time.Millisecond,
	})
	if err == nil || !strings.Contains(err.Error(), "giving up") {
		t.Fatalf("expected a giving-up error, got %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("give-up took %v, backoff not bounded", time.Since(start))
	}
}

// TestWorkerSingleSessionKeepsContract pins the ReconnectMax == 0 path:
// dial failures surface as-is and a coordinator-side close reports nil,
// exactly the pre-reconnect behavior.
func TestWorkerSingleSessionKeepsContract(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	if err := Serve(addr, "w", nil); err == nil {
		t.Fatal("dial failure must surface in single-session mode")
	}

	// A server that accepts, reads the preamble + hello, then closes: the
	// worker must report nil (EOF is a clean end in single-session mode).
	ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		// Consume both writes before closing: closing with unread data
		// resets the connection instead of ending it cleanly.
		if _, err := readPreamble(conn); err == nil {
			newFrameReader(conn).read()
		}
		time.Sleep(20 * time.Millisecond)
		conn.Close()
	}()
	if err := Serve(ln.Addr().String(), "w", nil); err != nil && !errors.Is(err, net.ErrClosed) {
		t.Fatalf("coordinator-side close must report nil, got %v", err)
	}
}
