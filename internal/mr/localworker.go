package mr

import (
	"errors"
	"fmt"
	"time"

	"dwmaxerr/internal/chaos"
)

// Shared-memory workers: a co-located coordinator/worker pair has no
// business paying for TCP framing, CRC trailers, and a serialize/decode
// round trip per task — the dominant fixed cost of small jobs when driver
// and workers share a process (the common single-machine deployment, and
// every test) — nor for re-running the job factory per task.
// AttachLocalWorker registers a worker that receives tasks over an
// in-memory channel, executes the driver's *Job by pointer (so a job needs
// no registry reference to run on it), and returns replies by reference.
//
// To the coordinator it is one more slot: the shared pipeline schedules,
// retries, speculates and commits over the same workerConn, so a cluster
// may freely mix TCP and shared-memory workers. Sharing the *Job means its
// task callbacks run concurrently on these workers exactly as they do on
// Local — they may share nothing mutable. Chaos failpoints are honored at
// the same protocol positions as the TCP path (chaosCoordSend before task
// handoff, chaosWorkerTask before execution, chaosWorkerSend before the
// reply is delivered), so fault drills exercise both transports.
//
// Memory discipline: the TCP worker recycles its task arenas after
// serializing a reply (nothing references the pairs once they are bytes on
// the wire). A shared-memory reply is not serialized — the coordinator
// retains the pairs themselves through shuffle and merge — so the worker
// never recycles; the attempt loop does, for replies that lose the commit
// race, and a committed reply's blocks stay alive until the job's results
// are garbage.

// AttachLocalWorker registers a shared-memory worker with the coordinator
// and starts its task loop in a new goroutine. The worker participates in
// scheduling exactly like a TCP worker (including clean shutdown on
// coordinator Close). The returned detach function removes the worker,
// failing any in-flight task so it is retried elsewhere; calling it more
// than once is safe.
func (c *Coordinator) AttachLocalWorker(name string) (detach func(), err error) {
	w := &workerConn{
		name:      name,
		local:     make(chan wireTask, 1),
		localGone: make(chan struct{}),
		lastBeat:  time.Now(),
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errors.New("mr: coordinator closed")
	}
	c.workers = append(c.workers, w)
	c.cond.Broadcast()
	c.mu.Unlock()
	obsWorkersJoined.Inc()
	obsWorkersLive.Add(1)
	go c.localWorkerLoop(w)
	return func() {
		c.workerFailed(w, fmt.Errorf("mr: shared-memory worker %q detached", name))
	}, nil
}

// localWorkerLoop executes tasks for one shared-memory worker until a
// shutdown task arrives, the coordinator closes, or a chaos fault kills
// the worker. It plays both serveSession (task execution) and readLoop
// (reply routing) without a connection in between.
func (c *Coordinator) localWorkerLoop(w *workerConn) {
	defer close(w.localGone)
	for {
		var task wireTask
		select {
		case <-c.done:
			c.workerFailed(w, errors.New("mr: coordinator closed"))
			return
		case task = <-w.local:
		}
		if task.Kind == "shutdown" {
			c.workerFailed(w, errors.New("mr: shared-memory worker shut down"))
			return
		}
		switch act := chaos.Point(chaosWorkerTask); act.Kind {
		case chaos.Fail:
			c.workerFailed(w, act.Err)
			return
		case chaos.Delay:
			time.Sleep(act.Sleep)
		}
		// No recycle here: the reply's pairs are handed to the coordinator
		// by reference (see the header comment). A failure travels as
		// reply.Err, like a TCP worker's.
		reply, _ := executeTask(&task)
		switch act := chaos.Point(chaosWorkerSend); act.Kind {
		case chaos.Fail:
			c.workerFailed(w, act.Err)
			return
		case chaos.Delay:
			time.Sleep(act.Sleep)
		}
		c.mu.Lock()
		if w.dead {
			// The exchange deadline (or a detach) already declared this
			// worker dead; its task was reassigned, so the stale reply is
			// dropped and the loop retires.
			c.mu.Unlock()
			return
		}
		w.lastBeat = time.Now()
		ch := w.pending
		w.pending = nil
		c.mu.Unlock()
		if ch != nil {
			ch <- taskOutcome{reply: reply}
		}
	}
}
