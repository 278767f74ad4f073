package mr

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"sync"
	"time"

	"dwmaxerr/internal/chaos"
	"dwmaxerr/internal/obs"
)

// The cluster engine: a coordinator accepts worker connections over TCP (and
// shared-memory workers, localworker.go) and is the executor the shared
// pipeline (pipeline.go) runs jobs on — each live worker is one slot, and
// executing an attempt is one task/reply exchange with it. Shuffle data
// flows through the coordinator (adequate for the data volumes the paper's
// algorithms shuffle: O(N/2^h) rows, not O(N) records).
//
// Failure model. Every worker connection is watched by a dedicated reader
// goroutine (replies and heartbeats) and by the coordinator's heartbeat
// monitor: a worker that disconnects, stops heartbeating, or overruns the
// per-task deadline is marked dead under the coordinator lock and its
// in-flight exchange fails, which the attempt loop answers with a retry on
// another worker — the retry semantics Hadoop provides. Task attempts carry
// their attempt number on the wire, and replies carry the attempt's
// user-counter snapshot and busy duration, so metrics (UserCounters,
// MapRetries/ReduceRetries, per-attempt TaskStats) are the same on every
// engine. Output is committed at most once per task: the first successful
// attempt wins, later duplicates are discarded.

// Wire messages. The coordinator sends task frames; workers answer with
// heartbeat and reply frames. Framing and the binary payload codecs live
// in wire.go; hello stays gob-encoded (one frame per connection).
type wireHello struct {
	WorkerName string
}

// wireTask describes one attempt to an executor. The exported fields are
// what wire.go encodes for a TCP worker.
type wireTask struct {
	Kind     string // "map", "reduce" or "shutdown"
	JobName  string // the job's registry reference; empty when it has none
	Params   []byte
	TaskID   int
	Attempt  int    // 1-based attempt number assigned by the attempt loop
	Split    Split  // map tasks
	Bucket   []Pair // reduce tasks: the sorted key group stream
	Reducers int

	// job is the driver's Job itself, for executors that share its memory;
	// it never crosses the wire.
	job *Job
}

type wireReply struct {
	TaskID  int
	Attempt int
	Err     string
	Parts   [][]Pair // map output per partition
	Out     []Pair   // reduce output
	// Counters is the attempt's user-counter snapshot; the coordinator
	// merges only the committed attempt's counters into the job metrics.
	Counters map[string]int64
	// Duration is the task's busy time on the worker.
	Duration time.Duration

	// release recycles the arenas behind Parts/Out. Set by executeTask,
	// never on a decoded reply (its pairs alias the frame buffer).
	release func()
}

// recycle returns the reply's arenas to the pool. The caller guarantees
// nothing references its pairs any more: a TCP worker once the reply is
// serialized, the attempt loop for a success that lost the commit race.
func (r wireReply) recycle() {
	if r.release != nil {
		r.release()
	}
}

func init() {
	gob.Register(wireHello{})
}

// Timing defaults. Workers heartbeat far more often than the coordinator's
// silence threshold so a healthy but busy worker is never declared dead.
const (
	defaultTaskTimeout      = 2 * time.Minute
	defaultHeartbeatTimeout = 3 * time.Second
	workerHeartbeatEvery    = 250 * time.Millisecond
	shutdownGrace           = time.Second
	// readyTimeout is how long a Run waits for a first worker to join.
	readyTimeout = 10 * time.Second
)

// Coordinator runs cluster jobs across connected workers. The tuning
// fields must be set before the first Run and not changed afterwards.
type Coordinator struct {
	ln net.Listener

	// TaskTimeout bounds one task execution; 0 means 2 minutes.
	TaskTimeout time.Duration
	// HeartbeatTimeout is the heartbeat silence after which a worker is
	// declared dead and its in-flight task reassigned; 0 means 3 seconds.
	HeartbeatTimeout time.Duration
	// SpeculationAfter enables Hadoop-style backup tasks: when an attempt
	// has been in flight longer than this and an idle worker is available,
	// a backup attempt of the same task is launched and the first to
	// finish wins. 0 disables speculation.
	SpeculationAfter time.Duration
	// MaxAttempts per task; 0 means 3.
	MaxAttempts int
	// RejoinGrace, when positive, makes scheduling tolerate transient
	// total-worker loss: instead of failing a job the moment every known
	// worker is dead, the coordinator keeps the job's tasks parked for up
	// to this long so self-healing workers (WorkerOptions.ReconnectMax)
	// can re-register. 0 keeps the fail-fast behavior.
	RejoinGrace time.Duration
	// Options applies to every Run, and to a RunWith whose own Trace is
	// nil. Like the tuning fields it must be set before the first Run — it
	// exists so a process can trace every job its drivers run on this
	// coordinator without threading a span through them.
	Options JobOptions

	monitorOnce sync.Once

	mu      sync.Mutex
	cond    *sync.Cond    // signaled on worker join, release, death, close
	workers []*workerConn // guarded by mu
	closed  bool          // guarded by mu
	done    chan struct{}
}

// taskOutcome is what an in-flight exchange resolves to.
type taskOutcome struct {
	reply wireReply
	err   error
}

// workerConn is the coordinator's view of one worker. The frame writer is
// guarded by sendMu (task sends and the shutdown broadcast interleave);
// all remaining mutable state is guarded by the coordinator's mu. It is the
// coordinator's slot type.
type workerConn struct {
	name string
	conn net.Conn // nil for shared-memory workers (see localworker.go)

	sendMu sync.Mutex
	fw     *frameWriter

	// local, when non-nil, marks a shared-memory worker: tasks are handed
	// over this channel instead of being framed onto a TCP connection, and
	// localGone is closed when its loop exits so sends never block on a
	// dead worker.
	local     chan wireTask
	localGone chan struct{}

	dead     bool             // guarded by Coordinator.mu
	busy     bool             // guarded by Coordinator.mu
	lastBeat time.Time        // guarded by Coordinator.mu
	pending  chan taskOutcome // guarded by Coordinator.mu; non-nil while a task is in flight
}

func (w *workerConn) label() string { return w.name }

// sendTask encodes and writes one task frame (scratch buffer pooled).
// Shared-memory workers skip the codec entirely: the task struct (with its
// *Job) crosses a channel, honoring the same coordinator-send failpoint the
// frame writer applies (Fail and Delay; Corrupt/Partial are frame-level
// actions with no shared-memory analogue).
func (w *workerConn) sendTask(task *wireTask) error {
	if w.local != nil {
		switch act := chaos.Point(chaosCoordSend); act.Kind {
		case chaos.Fail:
			return act.Err
		case chaos.Delay:
			time.Sleep(act.Sleep)
		}
		select {
		case w.local <- *task:
			return nil
		case <-w.localGone:
			return errors.New("mr: shared-memory worker detached")
		}
	}
	buf := getByteBuf()
	payload, err := appendWireTask(buf, task)
	if err == nil {
		w.sendMu.Lock()
		err = w.fw.write(frameTask, payload)
		w.sendMu.Unlock()
	}
	putByteBuf(payload)
	return err
}

// NewCoordinator listens on addr (e.g. "127.0.0.1:0") and returns
// immediately; workers join asynchronously via Serve.
func NewCoordinator(addr string) (*Coordinator, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{ln: ln, done: make(chan struct{})}
	c.cond = sync.NewCond(&c.mu)
	//dwlint:ignore goroleak -- acceptLoop blocks in Accept, not a channel; Close closes the listener, which makes Accept return and the loop exit
	go c.acceptLoop()
	return c, nil
}

// Addr returns the listen address workers should dial.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Close shuts the coordinator down gracefully: it broadcasts a shutdown
// task to every live worker, waits briefly for them to drain and
// disconnect, then closes any remaining connections and the listener.
// Close is idempotent.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	close(c.done)
	workers := append([]*workerConn(nil), c.workers...)
	c.cond.Broadcast()
	c.mu.Unlock()

	var wg sync.WaitGroup
	for _, w := range workers {
		c.mu.Lock()
		dead := w.dead
		c.mu.Unlock()
		if dead {
			continue
		}
		wg.Add(1)
		go func(w *workerConn) {
			defer wg.Done()
			sendErr := w.sendTask(&wireTask{Kind: "shutdown"})
			if sendErr == nil {
				// Wait for the worker to drain and close its end (the
				// reader marks it dead on EOF), bounded by the grace
				// period.
				deadline := time.Now().Add(shutdownGrace)
				for time.Now().Before(deadline) {
					c.mu.Lock()
					dead := w.dead
					c.mu.Unlock()
					if dead {
						return
					}
					time.Sleep(5 * time.Millisecond)
				}
			}
			if w.conn != nil {
				w.conn.Close()
			}
		}(w)
	}
	wg.Wait()
	return c.ln.Close()
}

func (c *Coordinator) acceptLoop() {
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		go c.admit(conn)
	}
}

// admit validates a joining connection: preamble (magic + wire version),
// then the gob hello frame. A version or protocol mismatch is rejected
// cleanly — a reject frame naming the reason, then close — so a stale
// worker binary can never exchange misdecoded shuffle data.
func (c *Coordinator) admit(conn net.Conn) {
	fw := newFrameWriter(conn)
	fw.chaosPoint = chaosCoordSend
	fr := newFrameReader(conn)
	version, err := readPreamble(conn)
	if err != nil {
		conn.Close()
		return
	}
	if version != wireVersion {
		fw.write(frameReject, fmt.Appendf(nil,
			"mr: coordinator speaks wire version %d, worker speaks %d", wireVersion, version))
		conn.Close()
		return
	}
	typ, payload, err := fr.read()
	if err != nil || typ != frameHello {
		if err == nil {
			fw.write(frameReject, []byte("mr: expected hello frame"))
		}
		conn.Close()
		return
	}
	var hello wireHello
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&hello); err != nil {
		conn.Close()
		return
	}
	w := &workerConn{name: hello.WorkerName, conn: conn, fw: fw, lastBeat: time.Now()}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return
	}
	// Re-registration: a self-healing worker rejoins under its prior
	// name. Prune the dead entries it supersedes so reconnect churn does
	// not grow the worker table without bound. A live same-name entry is
	// left alone (names are not required to be unique — test fleets share
	// one); if it is in fact a half-dead duplicate of this worker, its
	// stale replies are fenced by the at-most-once commit and its
	// connection dies on the next heartbeat check or send.
	kept := c.workers[:0]
	for _, ow := range c.workers {
		if ow.name == w.name && ow.dead {
			continue
		}
		kept = append(kept, ow)
	}
	for i := len(kept); i < len(c.workers); i++ {
		c.workers[i] = nil
	}
	c.workers = append(kept, w)
	c.cond.Broadcast()
	c.mu.Unlock()
	obsWorkersJoined.Inc()
	obsWorkersLive.Add(1)
	//dwlint:ignore goroleak -- readLoop blocks in a frame read, not a channel; dropWorker and Close close the conn, which errors the read and ends the loop
	go c.readLoop(w, fr)
}

// readLoop owns the worker's receive side: it routes heartbeats to the
// liveness clock and replies to the in-flight exchange, and converts any
// decode error into a worker death.
func (c *Coordinator) readLoop(w *workerConn, fr *frameReader) {
	for {
		typ, payload, err := fr.read()
		if err != nil {
			c.workerFailed(w, err)
			return
		}
		switch typ {
		case frameHeartbeat:
			obsHeartbeatsReceived.Inc()
			c.mu.Lock()
			w.lastBeat = time.Now()
			c.mu.Unlock()
		case frameReply:
			reply, err := decodeWireReply(payload)
			if err != nil {
				c.workerFailed(w, err)
				return
			}
			c.mu.Lock()
			w.lastBeat = time.Now()
			ch := w.pending
			w.pending = nil
			c.mu.Unlock()
			if ch != nil {
				ch <- taskOutcome{reply: reply}
			}
		default:
			c.workerFailed(w, fmt.Errorf("mr: unexpected frame type %d from worker %q", typ, w.name))
			return
		}
	}
}

// workerFailed marks a worker dead, closes its connection, and fails its
// in-flight exchange (if any) so the task is retried elsewhere.
func (c *Coordinator) workerFailed(w *workerConn, err error) {
	c.mu.Lock()
	if w.dead {
		c.mu.Unlock()
		return
	}
	w.dead = true
	ch := w.pending
	w.pending = nil
	c.cond.Broadcast()
	c.mu.Unlock()
	obsWorkersDead.Inc()
	obsWorkersLive.Add(-1)
	if w.conn != nil {
		w.conn.Close()
	}
	if ch != nil {
		ch <- taskOutcome{err: err}
	}
}

// WaitForWorkers blocks until at least n workers are connected and live or
// the timeout elapses.
func (c *Coordinator) WaitForWorkers(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		live := c.liveWorkers()
		if live >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("mr: only %d/%d workers joined within %v", live, n, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (c *Coordinator) liveWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	live := 0
	for _, w := range c.workers {
		if !w.dead {
			live++
		}
	}
	return live
}

func (c *Coordinator) timeout() time.Duration {
	if c.TaskTimeout > 0 {
		return c.TaskTimeout
	}
	return defaultTaskTimeout
}

func (c *Coordinator) heartbeatTimeout() time.Duration {
	if c.HeartbeatTimeout > 0 {
		return c.HeartbeatTimeout
	}
	return defaultHeartbeatTimeout
}

func (c *Coordinator) attempts() int {
	if c.MaxAttempts > 0 {
		return c.MaxAttempts
	}
	return 3
}

// ensureMonitor starts the heartbeat monitor on the first Run (after the
// tuning fields are final).
func (c *Coordinator) ensureMonitor() {
	c.monitorOnce.Do(func() { go c.monitor() })
}

// monitor periodically declares heartbeat-silent workers dead, reassigning
// their in-flight tasks mid-flight instead of waiting out the full task
// deadline.
func (c *Coordinator) monitor() {
	hb := c.heartbeatTimeout()
	interval := hb / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-ticker.C:
		}
		cutoff := time.Now().Add(-hb)
		var stale []*workerConn
		c.mu.Lock()
		for _, w := range c.workers {
			// Shared-memory workers run in this process and have no link
			// that can silently die, so they send no heartbeats and are
			// exempt from the liveness clock (their failure modes — panic,
			// task overrun — are covered by executeWireTask's recover and
			// the exchange deadline).
			if w.local != nil {
				continue
			}
			if !w.dead && w.lastBeat.Before(cutoff) {
				stale = append(stale, w)
			}
		}
		c.mu.Unlock()
		for _, w := range stale {
			c.workerFailed(w, fmt.Errorf("mr: worker %q missed heartbeats for %v", w.name, hb))
		}
	}
}

// acquire claims a live idle worker. With wait it blocks while tasks are in
// flight on other workers, and fails when the coordinator is closed or when
// every known worker is dead and none is busy (nothing can ever free up) —
// unless RejoinGrace is set, in which case the all-dead state is tolerated
// for up to that long so reconnecting workers can re-register. Without wait
// it returns nil when no worker is idle right now.
func (c *Coordinator) acquire(wait bool) (slot, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var allDeadSince time.Time
	for {
		if c.closed {
			return nil, errors.New("mr: coordinator closed")
		}
		busy := 0
		for _, w := range c.workers {
			switch {
			case w.dead:
			case w.busy:
				busy++
			default:
				w.busy = true
				return w, nil
			}
		}
		if !wait {
			return nil, nil
		}
		if len(c.workers) > 0 && busy == 0 {
			if c.RejoinGrace <= 0 {
				return nil, errors.New("mr: all workers are dead")
			}
			if allDeadSince.IsZero() {
				allDeadSince = time.Now()
			} else if time.Since(allDeadSince) >= c.RejoinGrace {
				return nil, fmt.Errorf("mr: all workers are dead (no rejoin within %v)", c.RejoinGrace)
			}
			// cond has no timed wait; nudge the loop so the grace deadline
			// is checked even if no worker event ever arrives.
			go func() {
				time.Sleep(10 * time.Millisecond)
				c.mu.Lock()
				c.cond.Broadcast()
				c.mu.Unlock()
			}()
		} else {
			allDeadSince = time.Time{}
		}
		c.cond.Wait()
	}
}

// release returns a worker to the idle pool.
func (c *Coordinator) release(s slot) {
	c.mu.Lock()
	s.(*workerConn).busy = false
	c.cond.Broadcast()
	c.mu.Unlock()
}

func (c *Coordinator) speculateAfter() time.Duration { return c.SpeculationAfter }

func (c *Coordinator) name() string { return "cluster" }

// execute is one task/reply exchange with the claimed worker.
func (c *Coordinator) execute(s slot, t *wireTask) (wireReply, error) {
	reply, err := c.exchange(s.(*workerConn), t)
	if err == nil {
		err = validateReply(t, reply)
	}
	return reply, err
}

// exchange sends one task to a worker and waits for its reply, the
// worker's death, or the task deadline — whichever happens first. A
// deadline overrun declares the worker dead so its slot is not reused.
func (c *Coordinator) exchange(w *workerConn, task *wireTask) (wireReply, error) {
	ch := make(chan taskOutcome, 1)
	c.mu.Lock()
	if w.dead {
		c.mu.Unlock()
		return wireReply{}, fmt.Errorf("mr: worker %q is dead", w.name)
	}
	w.pending = ch
	c.mu.Unlock()

	if err := w.sendTask(task); err != nil {
		c.mu.Lock()
		if w.pending == ch {
			w.pending = nil
		}
		c.mu.Unlock()
		c.workerFailed(w, err)
		return wireReply{}, err
	}
	timer := time.NewTimer(c.timeout())
	defer timer.Stop()
	select {
	case out := <-ch:
		return out.reply, out.err
	case <-timer.C:
		c.mu.Lock()
		if w.pending == ch {
			w.pending = nil
		}
		c.mu.Unlock()
		err := fmt.Errorf("mr: %s task %d timed out after %v on worker %q",
			task.Kind, task.TaskID, c.timeout(), w.name)
		c.workerFailed(w, err)
		return wireReply{}, err
	}
}

// validateReply rejects task-level failures and malformed map output: a
// worker returning fewer partitions than the job's reducer count would
// silently drop shuffle data, so a short Parts slice is a task failure and
// the attempt is retried.
func validateReply(task *wireTask, reply wireReply) error {
	if reply.Err != "" {
		return errors.New(reply.Err)
	}
	if reply.TaskID != task.TaskID {
		return fmt.Errorf("mr: reply for task %d while running task %d", reply.TaskID, task.TaskID)
	}
	if task.Kind == "map" && len(reply.Parts) != task.Reducers {
		return fmt.Errorf("mr: map task %d returned %d partitions, want %d",
			task.TaskID, len(reply.Parts), task.Reducers)
	}
	return nil
}

// Run implements Engine: it executes job across the fleet through the
// shared pipeline, tracing under c.Options.
func (c *Coordinator) Run(job *Job) (*Result, error) {
	return c.RunWith(job, JobOptions{})
}

// RunWith implements TracingEngine. A nil opts.Trace falls back to
// c.Options. Shared-memory workers run job by pointer; TCP workers rebuild
// it from its registry reference, so a job that has none (it was not built
// by LookupJob) is refused while any live worker is remote.
func (c *Coordinator) RunWith(job *Job, opts JobOptions) (*Result, error) {
	if opts.Trace == nil {
		opts = c.Options
	}
	if err := job.validate(); err != nil {
		return nil, err // before waiting on workers for nothing
	}
	c.ensureMonitor()
	if err := c.waitReady(readyTimeout); err != nil {
		return nil, err
	}
	if job.regName == "" {
		if w := c.remoteWorker(); w != "" {
			return nil, fmt.Errorf("mr: job %q has no registry reference (build it with LookupJob): worker %q is in another process and cannot run it", job.Name, w)
		}
	}
	return run(c, job, opts)
}

// remoteWorker names a live TCP worker, or "" when every live worker
// shares this process's memory.
func (c *Coordinator) remoteWorker() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.workers {
		if !w.dead && w.local == nil {
			return w.name
		}
	}
	return ""
}

// waitReady blocks until at least one live worker is connected. Unlike
// WaitForWorkers it fails fast when workers joined but all have since
// died — nothing would ever execute the job's tasks. With RejoinGrace set
// the all-dead state is tolerated within the deadline, mirroring acquire.
func (c *Coordinator) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		c.mu.Lock()
		closed := c.closed
		total := len(c.workers)
		live := 0
		for _, w := range c.workers {
			if !w.dead {
				live++
			}
		}
		c.mu.Unlock()
		if closed {
			return errors.New("mr: coordinator closed")
		}
		if live >= 1 {
			return nil
		}
		if total > 0 && c.RejoinGrace <= 0 {
			return errors.New("mr: all workers are dead")
		}
		if time.Now().After(deadline) {
			if total > 0 {
				return fmt.Errorf("mr: all workers are dead (no rejoin within %v)", timeout)
			}
			return fmt.Errorf("mr: no worker joined within %v", timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// WorkerOptions tunes a worker's Serve loop.
type WorkerOptions struct {
	// HeartbeatEvery is the heartbeat send interval; 0 means 250ms.
	HeartbeatEvery time.Duration
	// DisableHeartbeat suppresses heartbeats entirely (tests use it to
	// exercise the coordinator's liveness monitor).
	DisableHeartbeat bool
	// TaskHook, when non-nil, runs before each task execution; returning
	// an error makes the worker drop its connection without replying,
	// simulating a crash mid-task (tests use it for fault injection).
	TaskHook func(kind string, taskID, attempt int) error
	// ReconnectMax makes the worker self-healing: when its coordinator
	// connection dies for any reason other than a clean shutdown or a
	// protocol reject, the worker re-dials with jittered exponential
	// backoff (see backoff.go) and re-registers under its prior name.
	// The coordinator fences the stale registration; any in-flight task
	// the old connection carried is retried and de-duplicated by the
	// at-most-once commit. The worker gives up after this many
	// consecutive attempts that fail before completing the hello
	// exchange (attempts that re-register reset the count). 0 keeps the
	// single-session behavior.
	ReconnectMax int
	// ReconnectBase/ReconnectCap bound the reconnect backoff delays;
	// zero values default to 50ms and 5s.
	ReconnectBase time.Duration
	ReconnectCap  time.Duration
	// Trace, when non-nil, receives a child span per successful
	// re-registration.
	Trace *obs.Span
}

func (o WorkerOptions) heartbeatEvery() time.Duration {
	if o.HeartbeatEvery > 0 {
		return o.HeartbeatEvery
	}
	return workerHeartbeatEvery
}

// Serve runs a worker loop: dial the coordinator, announce, heartbeat, and
// execute tasks until the connection closes, a shutdown task arrives, or
// stop is closed.
func Serve(coordinatorAddr, name string, stop <-chan struct{}) error {
	return ServeWorker(coordinatorAddr, name, stop, WorkerOptions{})
}

// sessionLostError wraps connection deaths a self-healing worker may
// retry. Protocol rejects and clean shutdowns never carry it.
type sessionLostError struct{ cause error }

func (e *sessionLostError) Error() string { return e.cause.Error() }
func (e *sessionLostError) Unwrap() error { return e.cause }

// ServeWorker is Serve with explicit options. With opts.ReconnectMax > 0
// the worker survives coordinator connection loss: each lost session is
// retried after a jittered exponential backoff until a session ends
// cleanly, the coordinator rejects the worker, or ReconnectMax consecutive
// attempts fail without ever completing the hello exchange.
func ServeWorker(coordinatorAddr, name string, stop <-chan struct{}, opts WorkerOptions) error {
	if opts.ReconnectMax <= 0 {
		_, err := serveSession(coordinatorAddr, name, stop, opts, false)
		var lost *sessionLostError
		if errors.As(err, &lost) {
			// Single-session contract (the historical one): EOF and local
			// closes report nil, transport errors surface as-is.
			if errors.Is(lost.cause, io.EOF) || errors.Is(lost.cause, net.ErrClosed) {
				return nil
			}
			return lost.cause
		}
		return err
	}
	// Jitter is seeded from the worker name: deterministic per worker,
	// decorrelated across a fleet rejoining after a coordinator blip.
	h := fnv.New64a()
	h.Write([]byte(name))
	bo := NewBackoff(opts.ReconnectBase, opts.ReconnectCap, int64(h.Sum64()))
	registered := false
	fails := 0
	for {
		established, err := serveSession(coordinatorAddr, name, stop, opts, registered)
		if established {
			registered = true
			fails = 0
		}
		if err == nil {
			return nil
		}
		var lost *sessionLostError
		if !errors.As(err, &lost) {
			return err // reject or other permanent failure: never retried
		}
		if stopped(stop) {
			return nil
		}
		fails++
		if fails > opts.ReconnectMax {
			return fmt.Errorf("mr: worker %q giving up after %d consecutive failed reconnect attempts: %w",
				name, opts.ReconnectMax, lost.cause)
		}
		select {
		case <-stop:
			return nil
		case <-time.After(bo.Delay(fails)):
		}
	}
}

// stopped reports whether the worker's stop channel has fired.
func stopped(stop <-chan struct{}) bool {
	if stop == nil {
		return false
	}
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// serveSession runs one dial-to-disconnect worker session. established
// reports whether the hello exchange completed (the coordinator saw this
// registration); rejoining marks a re-registration after a previously
// established session, counted as a reconnect.
func serveSession(coordinatorAddr, name string, stop <-chan struct{}, opts WorkerOptions, rejoining bool) (established bool, err error) {
	conn, err := net.Dial("tcp", coordinatorAddr)
	if err != nil {
		return false, &sessionLostError{cause: err}
	}
	defer conn.Close()
	switch act := chaos.Point(chaosWorkerDial); act.Kind {
	case chaos.Fail:
		return false, &sessionLostError{cause: act.Err}
	case chaos.Delay:
		time.Sleep(act.Sleep)
	}
	// A per-session watcher closes the connection when stop fires;
	// sessionDone retires it so reconnect attempts don't leak a goroutine
	// per session.
	sessionDone := make(chan struct{})
	defer close(sessionDone)
	if stop != nil {
		go func() {
			select {
			case <-stop:
				conn.Close()
			case <-sessionDone:
			}
		}()
	}
	var sendMu sync.Mutex
	fw := newFrameWriter(conn)
	fw.chaosPoint = chaosWorkerSend
	fr := newFrameReader(conn)
	if _, err := conn.Write(appendPreamble(nil)); err != nil {
		return false, &sessionLostError{cause: err}
	}
	hello, err := GobEncode(&wireHello{WorkerName: name})
	if err != nil {
		return false, err
	}
	if err := fw.write(frameHello, hello); err != nil {
		return false, &sessionLostError{cause: err}
	}
	if rejoining {
		obsWorkerReconnects.Inc()
		rs := opts.Trace.Child("worker-reconnect")
		rs.SetStr("worker", name)
		rs.End()
	}
	// Heartbeats flow from a dedicated goroutine so a long-running task
	// does not silence them.
	hbStop := make(chan struct{})
	defer close(hbStop)
	if !opts.DisableHeartbeat {
		go func() {
			ticker := time.NewTicker(opts.heartbeatEvery())
			defer ticker.Stop()
			for {
				select {
				case <-hbStop:
					return
				case <-ticker.C:
				}
				sendMu.Lock()
				err := fw.write(frameHeartbeat, nil)
				sendMu.Unlock()
				if err != nil {
					return
				}
				obsWorkerBeatsSent.Inc()
			}
		}()
	}
	for {
		typ, payload, err := fr.read()
		if err != nil {
			if stopped(stop) {
				return true, nil
			}
			return true, &sessionLostError{cause: err}
		}
		if typ == frameReject {
			return true, fmt.Errorf("mr: coordinator rejected worker %q: %s", name, payload)
		}
		if typ != frameTask {
			return true, &sessionLostError{cause: fmt.Errorf("mr: unexpected frame type %d from coordinator", typ)}
		}
		task, err := decodeWireTask(payload)
		if err != nil {
			return true, &sessionLostError{cause: err}
		}
		if task.Kind == "shutdown" {
			// Graceful drain: any in-flight task already replied (tasks run
			// in this loop), so just disconnect.
			return true, nil
		}
		if opts.TaskHook != nil {
			if err := opts.TaskHook(task.Kind, task.TaskID, task.Attempt); err != nil {
				conn.Close()
				return true, &sessionLostError{cause: err}
			}
		}
		switch act := chaos.Point(chaosWorkerTask); act.Kind {
		case chaos.Fail:
			conn.Close()
			return true, &sessionLostError{cause: act.Err}
		case chaos.Delay:
			time.Sleep(act.Sleep)
		}
		reply, _ := executeTask(&task) // a failure travels as reply.Err
		buf := appendWireReply(getByteBuf(), &reply)
		sendMu.Lock()
		err = fw.write(frameReply, buf)
		sendMu.Unlock()
		putByteBuf(buf)
		// The reply is serialized; no Pair can reference the task's arenas
		// any more, so their blocks are safe to recycle.
		reply.recycle()
		if err != nil {
			return true, &sessionLostError{cause: err}
		}
	}
}
