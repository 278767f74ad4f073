package serve

import (
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"dwmaxerr/internal/chaos"
	"dwmaxerr/internal/mr"
)

// Node is one member of the sharded serve tier: it answers shard
// queries over the mr peer transport for the shards the consistent-hash
// ring assigns it (primary or replica), from a warm cache of decoded
// synopses. A node never proxies — a query for a shard it does not own
// is still answered (any shard in the store is loadable) but counted as
// serve_shard_not_owned, which a healthy cluster keeps at zero.
//
// Membership is dynamic. The node holds an epoch-stamped Membership and
// its ring; the router proposes changes over chaos-exempt mr.FrameEpoch
// control frames, and a background rebalancer goroutine runs the
// two-phase cutover: on Prepare it warms every shard it would own under
// the proposed ring *before* acking (so promotion never routes a query
// to a cold owner), on Commit it promotes the pending epoch, evicts
// shards the new ring moved elsewhere, and runs an anti-entropy audit
// (owned-but-cold shards warmed, stale cached roles rebuilt). Queries
// arrive tagged with the epoch the router routed under: the node
// answers for its current or pending epoch; a pending-epoch query also
// kicks an implicit commit, so a router that crashes between promoting
// its ring and sending Commit cannot strand the cluster mid-cutover.
// A query tagged with an epoch the node does not know (a cutover race,
// or a restarted router) is still answered but counted as
// serve_epoch_stale_queries — never as serve_shard_not_owned.
//
// Under overload a node walks a degradation ladder instead of failing:
// full-fidelity answer while in-flight slots last, then a degraded
// answer from the coarsest warm sibling of the requested shard (smaller
// B, weaker guarantee — still deterministic), and only when neither is
// possible an honest 503 shed.

// NodeConfig parameterizes a Node.
type NodeConfig struct {
	// Name is this node's ring identity; must appear in Nodes.
	Name string
	// Nodes is the initial cluster membership (epoch 0), identical on
	// every node and on the router — ownership is computed, never
	// negotiated. Later epochs arrive over the control plane.
	Nodes []string
	// Replicas is the ownership factor R (default 2, capped at the
	// cluster size by the ring).
	Replicas int
	// Vnodes is the ring's per-member point count (0 = DefaultVnodes).
	Vnodes int
	// Store resolves shard keys to synopses.
	Store Store
	// CacheShards caps the warm cache (default 64 entries).
	CacheShards int
	// MaxInFlight caps concurrently-answered shard queries; excess
	// queries take the degradation ladder. 0 = unlimited.
	MaxInFlight int
}

// epochJob is one unit of rebalancer work. reply is nil for implicit
// commits kicked by a pending-epoch query.
type epochJob struct {
	ctl   epochCtl
	reply chan epochCtl
}

// pendingEpoch is a prepared-but-uncommitted membership: shards warmed,
// ring built, waiting for the router's Commit (or a query tagged with
// its epoch).
type pendingEpoch struct {
	mem  Membership
	ring *Ring
}

// Node answers shard queries for its ring assignments.
type Node struct {
	cfg   NodeConfig
	cache *shardCache
	slots chan struct{} // nil when MaxInFlight == 0

	// chaosPoint names the per-query failpoint (serve.replica). Tests
	// that must fault exactly one node of an in-process cluster blank the
	// others' points, since the chaos injector is process-global.
	chaosPoint string

	emu  sync.Mutex
	mem  Membership    // guarded by emu — current membership
	ring *Ring         // guarded by emu — current ring
	pend *pendingEpoch // guarded by emu — prepared, uncommitted epoch

	rebalJobs chan epochJob
	rebalStop chan struct{} // closed by die

	mu    sync.Mutex
	ln    net.Listener          // guarded by mu
	conns map[*mr.PeerConn]bool // guarded by mu
	dead  bool                  // guarded by mu

	wg sync.WaitGroup
}

// NewNode builds a node and starts its rebalancer. The store is not
// touched until Warm, the first query, or the first membership change.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("serve: node needs a name")
	}
	if cfg.Store == nil {
		return nil, fmt.Errorf("serve: node needs a store")
	}
	if cfg.Replicas == 0 {
		cfg.Replicas = 2
	}
	if cfg.Replicas < 1 {
		return nil, fmt.Errorf("serve: replicas %d < 1", cfg.Replicas)
	}
	if cfg.CacheShards == 0 {
		cfg.CacheShards = 64
	}
	mem := NewMembership(0, cfg.Nodes...)
	if !mem.Contains(cfg.Name) {
		return nil, fmt.Errorf("serve: node %q is not in the member list %v", cfg.Name, cfg.Nodes)
	}
	n := &Node{
		cfg:        cfg,
		mem:        mem,
		ring:       mem.ring(cfg.Vnodes),
		cache:      newShardCache(cfg.CacheShards),
		chaosPoint: chaosReplica,
		rebalJobs:  make(chan epochJob, 4),
		rebalStop:  make(chan struct{}),
		conns:      make(map[*mr.PeerConn]bool),
	}
	if cfg.MaxInFlight > 0 {
		n.slots = make(chan struct{}, cfg.MaxInFlight)
	}
	n.wg.Add(1)
	//dwlint:ignore goroleak -- the rebalancer selects on rebalStop, which die closes; Close waits on wg
	go n.rebalancer()
	return n, nil
}

// ringRole names a node's relation to a shard under a given ring:
// "primary", "replica-<i>", or "stray" (not an owner). owned reports
// membership in the shard's replica set.
func ringRole(r *Ring, name string, k ShardKey, replicas int) (string, bool) {
	for i, o := range r.Owners(k, replicas) {
		if o != name {
			continue
		}
		if i == 0 {
			return "primary", true
		}
		return "replica-" + strconv.Itoa(i), true
	}
	return "stray", false
}

// role names this node's relation to a shard under the current ring.
func (n *Node) role(k ShardKey) (string, bool) {
	n.emu.Lock()
	r := n.ring
	n.emu.Unlock()
	return ringRole(r, n.cfg.Name, k, n.cfg.Replicas)
}

// Epoch returns the current (committed) ring epoch.
func (n *Node) Epoch() int64 {
	n.emu.Lock()
	defer n.emu.Unlock()
	return n.mem.Epoch
}

// Warm preloads every owned shard from the store into the cache, so the
// first query after startup (or restart) pays no decode latency. It
// returns the number of shards loaded.
func (n *Node) Warm() (int, error) {
	keys, err := n.cfg.Store.Keys()
	if err != nil {
		return 0, err
	}
	loaded := 0
	for _, k := range keys {
		if _, owned := n.role(k); !owned {
			continue
		}
		if _, err := n.entry(k, false); err != nil {
			return loaded, err
		}
		loaded++
	}
	return loaded, nil
}

// entry returns the warm cache entry for k, loading and decoding the
// shard on a miss. stray confines the fill to the cache's evict-first
// side segment, so misrouted queries cannot evict owned shards.
func (n *Node) entry(k ShardKey, stray bool) (*cacheEntry, error) {
	if e, ok := n.cache.get(k); ok {
		return e, nil
	}
	n.emu.Lock()
	ring := n.ring
	n.emu.Unlock()
	e, err := n.build(k, ring)
	if err != nil {
		return nil, err
	}
	n.cache.put(e, stray)
	return e, nil
}

// build loads and decodes a shard into a fresh cache entry, stamping
// its view with this node's role for it under the given ring — the
// current one on the query path, the proposed one when the rebalancer
// warms ahead of a cutover.
func (n *Node) build(k ShardKey, ring *Ring) (*cacheEntry, error) {
	sh, err := n.cfg.Store.Load(k)
	if err != nil {
		return nil, err
	}
	v, err := newView(sh.Syn, sh.MaxAbs)
	if err != nil {
		return nil, err
	}
	v.node, v.shard = n.cfg.Name, k.String()
	v.role, _ = ringRole(ring, n.cfg.Name, k, n.cfg.Replicas)
	return &cacheEntry{key: k, view: v}, nil
}

// Serve accepts router connections on ln until the node is closed (or
// killed by the serve.replica failpoint). It returns nil after a
// deliberate shutdown.
func (n *Node) Serve(ln net.Listener) error {
	n.mu.Lock()
	if n.dead {
		n.mu.Unlock()
		ln.Close()
		return fmt.Errorf("serve: node %s is dead", n.cfg.Name)
	}
	n.ln = ln
	n.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if n.Dead() {
				return nil
			}
			return err
		}
		n.wg.Add(1)
		//dwlint:ignore goroleak -- handleConn blocks in Recv on its conn; die and Close close every tracked conn, which errors Recv and ends the loop (Close then waits on wg)
		go n.handleConn(conn)
	}
}

func (n *Node) handleConn(conn net.Conn) {
	defer n.wg.Done()
	pc, err := mr.AcceptPeer(conn, "")
	if err != nil {
		return
	}
	if !n.track(pc) {
		pc.Close()
		return
	}
	defer n.untrack(pc)
	defer pc.Close()
	for {
		typ, payload, err := pc.Recv()
		if err != nil {
			return
		}
		switch typ {
		case mr.FrameHeartbeat:
			if err := pc.Send(mr.FrameHeartbeat, nil); err != nil {
				return
			}
		case mr.FrameEpoch:
			ctl, err := decodeEpochCtl(payload)
			if err != nil {
				return
			}
			if err := pc.Send(mr.FrameEpoch, n.submit(ctl).encode()); err != nil {
				return
			}
		case frameShardQuery:
			req, err := decodeShardRequest(payload)
			if err != nil {
				return
			}
			rep, err := n.reply(req)
			if err != nil {
				// The failpoint killed the node mid-query; the connection
				// dies with it and the router sees a mid-exchange failure —
				// exactly the shape a real replica death has.
				return
			}
			if err := pc.Send(frameShardReply, rep.encode()); err != nil {
				return
			}
		default:
			return
		}
	}
}

func (n *Node) track(pc *mr.PeerConn) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.dead {
		return false
	}
	n.conns[pc] = true
	return true
}

func (n *Node) untrack(pc *mr.PeerConn) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.conns, pc)
}

// submit hands a control message to the rebalancer and waits for its
// answer. A closed node naks immediately.
func (n *Node) submit(ctl epochCtl) epochCtl {
	nak := epochCtl{Kind: epochCtlNak, Mem: Membership{Epoch: ctl.Mem.Epoch},
		Err: fmt.Sprintf("serve: node %s closed", n.cfg.Name)}
	reply := make(chan epochCtl, 1)
	select {
	case n.rebalJobs <- epochJob{ctl: ctl, reply: reply}:
	case <-n.rebalStop:
		return nak
	}
	select {
	case rep := <-reply:
		return rep
	case <-n.rebalStop:
		return nak
	}
}

// kickCommit schedules an implicit commit for a pending epoch a query
// just arrived under. Non-blocking: if the rebalancer's queue is full
// the commit is already on its way.
func (n *Node) kickCommit(epoch int64) {
	select {
	case n.rebalJobs <- epochJob{ctl: epochCtl{Kind: epochCtlCommit, Mem: Membership{Epoch: epoch}}}:
	default:
	}
}

// rebalancer is the node's membership state machine: one goroutine
// processes prepares and commits in arrival order, so cutover phases
// never interleave on a node.
func (n *Node) rebalancer() {
	defer n.wg.Done()
	for {
		select {
		case <-n.rebalStop:
			return
		case job := <-n.rebalJobs:
			var rep epochCtl
			switch job.ctl.Kind {
			case epochCtlPrepare:
				rep = n.prepare(job.ctl.Mem)
			case epochCtlCommit:
				rep = n.commit(job.ctl.Mem.Epoch)
			default:
				rep = epochCtl{Kind: epochCtlNak,
					Err: fmt.Sprintf("serve: unknown epoch control kind %d", job.ctl.Kind)}
			}
			if job.reply != nil {
				job.reply <- rep
			}
		}
	}
}

// prepare is cutover phase one: build the proposed ring, warm every
// shard this node would own under it, and only then record the epoch as
// pending and ack. A node that acks is query-ready for the new epoch —
// the router may promote the moment every ack is in.
func (n *Node) prepare(mem Membership) epochCtl {
	act := chaos.Point(chaosRebalance)
	if act.Kind == chaos.Fail {
		return epochCtl{Kind: epochCtlNak, Mem: Membership{Epoch: mem.Epoch}, Err: act.Err.Error()}
	}
	if act.Kind == chaos.Delay {
		time.Sleep(act.Sleep)
	}
	n.emu.Lock()
	cur := n.mem.Epoch
	n.emu.Unlock()
	if mem.Epoch <= cur {
		return epochCtl{Kind: epochCtlNak, Mem: Membership{Epoch: mem.Epoch},
			Err: fmt.Sprintf("serve: proposed epoch %d is not ahead of current %d", mem.Epoch, cur)}
	}
	ring := mem.ring(n.cfg.Vnodes)
	warmed := 0
	// A node leaving the cluster (drain) still acks: it owns nothing
	// under the new ring, so there is nothing to warm.
	if mem.Contains(n.cfg.Name) {
		keys, err := n.cfg.Store.Keys()
		if err != nil {
			return epochCtl{Kind: epochCtlNak, Mem: Membership{Epoch: mem.Epoch}, Err: err.Error()}
		}
		for _, k := range keys {
			if _, owned := ringRole(ring, n.cfg.Name, k, n.cfg.Replicas); !owned {
				continue
			}
			if _, ok := n.cache.peek(k); ok {
				continue
			}
			e, err := n.build(k, ring)
			if err != nil {
				return epochCtl{Kind: epochCtlNak, Mem: Membership{Epoch: mem.Epoch}, Err: err.Error()}
			}
			n.cache.put(e, false)
			warmed++
		}
	}
	n.emu.Lock()
	n.pend = &pendingEpoch{mem: mem, ring: ring}
	n.emu.Unlock()
	obsRebalanceWarmed.Add(int64(warmed))
	return epochCtl{Kind: epochCtlAck, Mem: Membership{Epoch: mem.Epoch}, Count: int64(warmed)}
}

// commit is cutover phase two: promote the pending epoch, then sweep —
// evict shards the new ring moved elsewhere and run the anti-entropy
// audit (warm owned-but-cold shards, rebuild entries whose cached role
// went stale). Committing the already-current epoch is idempotent and
// re-runs only the sweep.
func (n *Node) commit(epoch int64) epochCtl {
	n.emu.Lock()
	switch {
	case n.pend != nil && n.pend.mem.Epoch == epoch:
		n.mem, n.ring = n.pend.mem, n.pend.ring
		n.pend = nil
		obsEpoch.Set(epoch)
	case n.mem.Epoch == epoch:
		// Already committed (the implicit kick and the router's explicit
		// commit can both land); re-audit below, it is cheap and honest.
	default:
		cur := n.mem.Epoch
		n.emu.Unlock()
		return epochCtl{Kind: epochCtlNak, Mem: Membership{Epoch: epoch},
			Err: fmt.Sprintf("serve: commit for unknown epoch %d (current %d)", epoch, cur)}
	}
	ring := n.ring
	n.emu.Unlock()

	evicted := 0
	for _, k := range n.cache.keys() {
		if _, owned := ringRole(ring, n.cfg.Name, k, n.cfg.Replicas); owned {
			continue
		}
		if n.cache.remove(k) {
			evicted++
		}
	}
	obsRebalanceEvicted.Add(int64(evicted))

	fixed := 0
	if keys, err := n.cfg.Store.Keys(); err == nil {
		for _, k := range keys {
			role, owned := ringRole(ring, n.cfg.Name, k, n.cfg.Replicas)
			if !owned {
				continue
			}
			if e, ok := n.cache.peek(k); ok && e.view.role == role {
				continue
			}
			// Owned but cold (prepare raced an eviction, or this commit is
			// repairing divergence) or warm with a stale role: rebuild.
			e, err := n.build(k, ring)
			if err != nil {
				continue
			}
			n.cache.put(e, false)
			fixed++
		}
	}
	obsRebalanceAudit.Add(int64(fixed))
	return epochCtl{Kind: epochCtlAck, Mem: Membership{Epoch: epoch}, Count: int64(evicted)}
}

// reply resolves one shard query. A non-nil error means the node was
// killed by chaos and the connection must drop without a reply.
func (n *Node) reply(req shardRequest) (shardReply, error) {
	// The failpoint fires before any accounting: a query that kills its
	// replica was never answered, so it must not count as one.
	act := chaos.Point(n.chaosPoint)
	if act.Kind == chaos.Fail {
		n.die()
		return shardReply{}, act.Err
	}
	obsShardQueries.Inc()

	// Resolve the query's epoch against current and pending rings. Only
	// a recognized epoch can accuse the router of misrouting: ownership
	// disagreement under an unknown epoch is a cutover race (or a
	// restarted process), counted as stale, never as not-owned.
	n.emu.Lock()
	epoch, ring := n.mem.Epoch, n.ring
	pend := n.pend
	n.emu.Unlock()
	known := true
	switch {
	case req.Epoch == epoch:
	case pend != nil && req.Epoch == pend.mem.Epoch:
		// The router routes under this epoch already — it promoted, so
		// commit must be on its way; kick it in case it never arrives.
		epoch, ring = pend.mem.Epoch, pend.ring
		n.kickCommit(req.Epoch)
	default:
		known = false
		obsEpochStale.Inc()
	}

	role, owned := ringRole(ring, n.cfg.Name, req.Key, n.cfg.Replicas)
	if !known {
		role = "stale-epoch"
	} else if !owned {
		obsShardNotOwned.Inc()
	}
	rep := shardReply{Node: n.cfg.Name, Role: role, Epoch: epoch}
	if n.slots != nil {
		select {
		case n.slots <- struct{}{}:
			defer func() { <-n.slots }()
		default:
			// Degradation ladder: a coarser warm sibling answers (cheaper
			// and already decoded) before we ever shed.
			if ent, ok := n.cache.coarser(req.Key); ok {
				obsShardDegraded.Inc()
				rep.DegradedB = ent.key.B
				status, body := respond(ent.view, req.Path, req.RawQuery)
				rep.Status, rep.Body = status, encodeJSON(body)
				return rep, nil
			}
			obsShardShed.Inc()
			rep.Status = http.StatusServiceUnavailable
			rep.Body = encodeJSON(errorBody{fmt.Sprintf(
				"serve: node %s overloaded, no coarser synopsis warm", n.cfg.Name)})
			return rep, nil
		}
	}
	// An injected stall holds its slot like any slow query would, so the
	// degradation tests exercise the real overload path.
	if act.Kind == chaos.Delay {
		time.Sleep(act.Sleep)
	}
	ent, err := n.entry(req.Key, !owned)
	if err != nil {
		rep.Status, rep.Body = http.StatusNotFound, encodeJSON(errorBody{err.Error()})
		return rep, nil
	}
	status, body := respond(ent.view, req.Path, req.RawQuery)
	rep.Status, rep.Body = status, encodeJSON(body)
	return rep, nil
}

// die kills the node: listener, every live connection, and the
// rebalancer closed, no recovery. The serve.replica failpoint's Fail
// verb lands here.
func (n *Node) die() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.dead {
		return
	}
	n.dead = true
	close(n.rebalStop)
	if n.ln != nil {
		n.ln.Close()
	}
	for pc := range n.conns {
		pc.Close()
	}
}

// Dead reports whether the node was killed or closed.
func (n *Node) Dead() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.dead
}

// Warmed returns the number of warm shards in the cache.
func (n *Node) Warmed() int { return n.cache.len() }

// Close shuts the node down and waits for its connection handlers and
// rebalancer.
func (n *Node) Close() error {
	n.die()
	n.wg.Wait()
	return nil
}
