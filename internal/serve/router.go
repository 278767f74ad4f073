package serve

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"dwmaxerr/internal/mr"
	"dwmaxerr/internal/obs"
)

// Router is the serve tier's front end: it accepts the same HTTP query
// API a single server exposes, maps each request to a shard key, and
// proxies it to that shard's owners over the mr peer transport —
// primary first, failing over to the next replica when an attempt dies
// mid-exchange. Peer links are dialed lazily, kept open across queries,
// and redialed under the engine's jittered exponential backoff; while a
// peer's backoff window is pending the router skips it outright instead
// of stalling queries on a dead socket.
//
// The router also owns cluster membership. It holds the epoch-stamped
// Membership, drives two-phase cutover when it changes (parallel
// Prepare to every member of the new epoch — each warms before acking —
// then promote-and-commit), tags every query with the epoch it routed
// under, and runs a failure detector on its heartbeat loops: a peer
// that misses DetectMisses consecutive heartbeats is demoted from
// membership automatically (flap-damped by DampWindow so one slow node
// cannot thrash the ring). Membership changes arrive via the admin
// plane — POST /admin/join, POST /admin/drain, GET /admin/membership —
// or from the detector; both funnel through the same propose path, so
// every change is exactly one epoch bump.

// Peer names one serve node and its shard-listener address.
type Peer struct {
	Name string
	Addr string
}

// RouterConfig parameterizes a Router.
type RouterConfig struct {
	// Peers is the initial cluster membership (epoch 0) with addresses.
	// Names must match the -nodes list every node was started with.
	Peers []Peer
	// Replicas is the ownership factor R (default 2).
	Replicas int
	// Vnodes is the ring's per-member point count (0 = DefaultVnodes).
	Vnodes int
	// Dataset, B and Metric are the shard-key defaults applied when a
	// request omits the corresponding query parameter.
	Dataset string
	B       int
	Metric  string
	// DialTimeout bounds one peer dial (default 2s); ReplyTimeout bounds
	// one full query exchange — including an epoch Prepare, which warms
	// shards before answering (default 10s).
	DialTimeout  time.Duration
	ReplyTimeout time.Duration
	// RetryBase and RetryCap shape the per-peer redial backoff (defaults
	// are the engine's: 50ms doubling to 5s, jittered).
	RetryBase time.Duration
	RetryCap  time.Duration
	// Heartbeat, when positive, pings every peer link at this interval so
	// dead peers are detected (and their backoff started) between
	// queries, not by the first query that needs them.
	Heartbeat time.Duration
	// DetectMisses, when positive, arms the failure detector: a peer
	// missing that many consecutive heartbeats is demoted from
	// membership (suspected at half that, for the metrics). Requires
	// Heartbeat > 0 to have any effect.
	DetectMisses int
	// DampWindow suppresses detector demotions for this long after any
	// membership change, so a cutover's own disruption (and a flapping
	// link) cannot cascade into serial demotions.
	DampWindow time.Duration
	// Seed drives the backoff jitter deterministically.
	Seed int64
	// Tracer, when non-nil, records one span per routed query with a
	// child per forward attempt.
	Tracer *obs.Tracer
}

// Router proxies queries to shard owners. Safe for concurrent use.
type Router struct {
	cfg RouterConfig

	mu         sync.Mutex
	mem        Membership             // guarded by mu — current membership
	ring       *Ring                  // guarded by mu — current ring
	peers      map[string]*peerClient // guarded by mu
	addrs      map[string]string      // guarded by mu — member name → shard addr
	cutover    bool                   // guarded by mu — a membership change is in flight
	lastChange time.Time              // guarded by mu — when the epoch last bumped
	peerSeq    int                    // guarded by mu — seeds backoff jitter per peer ever added

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewRouter builds a router and, when configured, starts its heartbeat
// loops. No peer is dialed until first use.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("serve: router needs peers")
	}
	if cfg.Replicas == 0 {
		cfg.Replicas = 2
	}
	if cfg.Replicas < 1 {
		return nil, fmt.Errorf("serve: replicas %d < 1", cfg.Replicas)
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.ReplyTimeout <= 0 {
		cfg.ReplyTimeout = 10 * time.Second
	}
	rt := &Router{
		cfg:   cfg,
		peers: make(map[string]*peerClient, len(cfg.Peers)),
		addrs: make(map[string]string, len(cfg.Peers)),
		stop:  make(chan struct{}),
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	names := make([]string, 0, len(cfg.Peers))
	for i, p := range cfg.Peers {
		if p.Name == "" || p.Addr == "" {
			return nil, fmt.Errorf("serve: peer %d needs name=addr", i)
		}
		if _, dup := rt.peers[p.Name]; dup {
			return nil, fmt.Errorf("serve: duplicate peer %q", p.Name)
		}
		rt.addPeerLocked(p.Name, p.Addr)
		names = append(names, p.Name)
	}
	rt.mem = NewMembership(0, names...)
	rt.ring = rt.mem.ring(cfg.Vnodes)
	obsEpoch.Set(0)
	return rt, nil
}

// addPeerLocked registers a peer client and starts its heartbeat loop.
// Caller holds mu (or is NewRouter before the router escapes).
func (rt *Router) addPeerLocked(name, addr string) {
	p := &peerClient{
		name:        name,
		addr:        addr,
		dialTimeout: rt.cfg.DialTimeout,
		bo:          mr.NewBackoff(rt.cfg.RetryBase, rt.cfg.RetryCap, rt.cfg.Seed+int64(rt.peerSeq)*7919),
		gone:        make(chan struct{}),
	}
	rt.peerSeq++
	rt.peers[name] = p
	rt.addrs[name] = addr
	if rt.cfg.Heartbeat > 0 {
		rt.wg.Add(1)
		//dwlint:ignore goroleak -- heartbeat selects on rt.stop and p.gone; Close closes stop and waits on wg, removal closes gone
		go rt.heartbeat(p)
	}
}

// heartbeat keeps one peer link probed so death is noticed (and the
// redial backoff started) between queries, and feeds the failure
// detector: DetectMisses consecutive misses demote the peer from
// membership. Errors are not surfaced — the link and membership state
// they updated is the product.
func (rt *Router) heartbeat(p *peerClient) {
	defer rt.wg.Done()
	t := time.NewTicker(rt.cfg.Heartbeat)
	defer t.Stop()
	misses, suspected := 0, false
	for {
		select {
		case <-rt.stop:
			return
		case <-p.gone:
			return
		case <-t.C:
			if _, _, err := p.exchange(mr.FrameHeartbeat, nil, rt.cfg.ReplyTimeout); err == nil {
				misses, suspected = 0, false
				continue
			}
			if rt.cfg.DetectMisses <= 0 {
				continue
			}
			misses++
			if !suspected && misses >= (rt.cfg.DetectMisses+1)/2 {
				suspected = true
				obsDetectorSuspects.Inc()
			}
			if misses >= rt.cfg.DetectMisses {
				// demote may refuse (damped, cutover in flight, last
				// member); keep trying on subsequent misses until the
				// peer recovers or the refusal clears.
				if rt.demote(p.name) {
					return
				}
			}
		}
	}
}

// demote removes a detector-condemned peer from membership. It refuses
// — returning false, the detector retries later — while a cutover is in
// flight, within DampWindow of the last change, or when the peer is the
// last member standing.
func (rt *Router) demote(name string) bool {
	rt.mu.Lock()
	if rt.cutover || !rt.mem.Contains(name) || len(rt.mem.Members) <= 1 ||
		time.Since(rt.lastChange) < rt.cfg.DampWindow {
		rt.mu.Unlock()
		return false
	}
	names := make([]string, 0, len(rt.mem.Members)-1)
	for _, m := range rt.mem.Members {
		if m != name {
			names = append(names, m)
		}
	}
	rt.mu.Unlock()
	if err := rt.propose(names, nil); err != nil {
		return false
	}
	obsDetectorDeaths.Inc()
	return true
}

// Join adds a node to membership: one epoch bump, shards warmed on
// their new owners before any query routes to them.
func (rt *Router) Join(name, addr string) (Membership, error) {
	if name == "" || addr == "" {
		return Membership{}, fmt.Errorf("serve: join needs name and addr")
	}
	rt.mu.Lock()
	if rt.mem.Contains(name) {
		rt.mu.Unlock()
		return Membership{}, fmt.Errorf("serve: %q is already a member", name)
	}
	names := append(append([]string(nil), rt.mem.Members...), name)
	rt.mu.Unlock()
	if err := rt.propose(names, map[string]string{name: addr}); err != nil {
		return Membership{}, err
	}
	return rt.Membership(), nil
}

// Drain removes a node from membership: one epoch bump, its shards
// warmed on their new owners before the ring stops routing to it. The
// drained node itself is not notified — the router simply stops sending
// to it, and any query still in flight answers under its old epoch.
func (rt *Router) Drain(name string) (Membership, error) {
	rt.mu.Lock()
	if !rt.mem.Contains(name) {
		rt.mu.Unlock()
		return Membership{}, fmt.Errorf("serve: %q is not a member", name)
	}
	if len(rt.mem.Members) == 1 {
		rt.mu.Unlock()
		return Membership{}, fmt.Errorf("serve: cannot drain the last member")
	}
	names := make([]string, 0, len(rt.mem.Members)-1)
	for _, m := range rt.mem.Members {
		if m != name {
			names = append(names, m)
		}
	}
	rt.mu.Unlock()
	if err := rt.propose(names, nil); err != nil {
		return Membership{}, err
	}
	return rt.Membership(), nil
}

// Membership returns the current epoch-stamped membership.
func (rt *Router) Membership() Membership {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return Membership{Epoch: rt.mem.Epoch, Members: append([]string(nil), rt.mem.Members...)}
}

// propose is the single path every membership change takes: exactly one
// epoch bump per call. Phase one sends Prepare(E+1, members) to every
// member of the new epoch over dedicated control connections — each
// warms its newly-owned shards before acking, so promotion never routes
// a query at a cold owner; any nak or unreachable member aborts the
// change and the cluster stays on the old epoch. Phase two promotes the
// router's own ring and peer set. Phase three sends best-effort Commits
// (a node missing its Commit self-heals: the first query tagged with
// the new epoch kicks an implicit commit).
func (rt *Router) propose(names []string, newAddrs map[string]string) error {
	rt.mu.Lock()
	if rt.cutover {
		rt.mu.Unlock()
		return fmt.Errorf("serve: a membership change is already in flight")
	}
	rt.cutover = true
	target := NewMembership(rt.mem.Epoch+1, names...)
	addrs := make(map[string]string, len(target.Members))
	for _, m := range target.Members {
		a := rt.addrs[m]
		if na, ok := newAddrs[m]; ok {
			a = na
		}
		if a == "" {
			rt.cutover = false
			rt.mu.Unlock()
			return fmt.Errorf("serve: no address for member %q", m)
		}
		addrs[m] = a
	}
	rt.mu.Unlock()

	if err := rt.controlAll(epochCtl{Kind: epochCtlPrepare, Mem: target}, addrs); err != nil {
		rt.mu.Lock()
		rt.cutover = false
		rt.mu.Unlock()
		return fmt.Errorf("serve: prepare epoch %d: %w", target.Epoch, err)
	}

	rt.mu.Lock()
	rt.mem = target
	rt.ring = target.ring(rt.cfg.Vnodes)
	for _, m := range target.Members {
		rt.addrs[m] = addrs[m]
		if _, ok := rt.peers[m]; !ok {
			rt.addPeerLocked(m, addrs[m])
		}
	}
	for name, p := range rt.peers {
		if !target.Contains(name) {
			close(p.gone)
			p.close()
			delete(rt.peers, name)
			delete(rt.addrs, name)
		}
	}
	rt.lastChange = time.Now()
	rt.cutover = false
	rt.mu.Unlock()
	obsEpochBumps.Inc()
	obsEpoch.Set(target.Epoch)

	// Best-effort: an unreachable member self-heals via implicit commit.
	rt.controlAll(epochCtl{Kind: epochCtlCommit, Mem: Membership{Epoch: target.Epoch}}, addrs)
	return nil
}

// controlAll sends one control message to every addressed member in
// parallel and collects the first failure. Control traffic rides
// dedicated short-lived connections — never the query links — so a slow
// warm cannot stall queries, and the serve.forward failpoint (scoped to
// query links) cannot corrupt the membership state machine.
func (rt *Router) controlAll(ctl epochCtl, addrs map[string]string) error {
	var wg sync.WaitGroup
	errc := make(chan error, len(addrs))
	for name, addr := range addrs {
		wg.Add(1)
		go func(name, addr string) {
			defer wg.Done()
			if err := rt.control(addr, ctl); err != nil {
				errc <- fmt.Errorf("member %s: %w", name, err)
			}
		}(name, addr)
	}
	wg.Wait()
	close(errc)
	return <-errc
}

// control runs one request/reply on a fresh control connection.
func (rt *Router) control(addr string, ctl epochCtl) error {
	pc, err := mr.DialPeer(addr, rt.cfg.DialTimeout, "")
	if err != nil {
		return err
	}
	defer pc.Close()
	pc.SetDeadline(time.Now().Add(rt.cfg.ReplyTimeout))
	if err := pc.Send(mr.FrameEpoch, ctl.encode()); err != nil {
		return err
	}
	typ, raw, err := pc.Recv()
	if err != nil {
		return err
	}
	if typ != mr.FrameEpoch {
		return fmt.Errorf("serve: control answered frame type %d", typ)
	}
	rep, err := decodeEpochCtl(raw)
	if err != nil {
		return err
	}
	if rep.Kind != epochCtlAck {
		return fmt.Errorf("serve: control nak: %s", rep.Err)
	}
	return nil
}

// requestKey maps a request to its shard key, applying the router's
// configured defaults for omitted parameters.
func (rt *Router) requestKey(r *http.Request) (ShardKey, error) {
	q := r.URL.Query()
	k := ShardKey{Dataset: q.Get("dataset"), B: rt.cfg.B, Metric: q.Get("metric")}
	if k.Dataset == "" {
		k.Dataset = rt.cfg.Dataset
	}
	if k.Metric == "" {
		k.Metric = rt.cfg.Metric
	}
	if raw := q.Get("b"); raw != "" {
		b, err := strconv.Atoi(raw)
		if err != nil {
			return ShardKey{}, fmt.Errorf("parameter \"b\": %v", err)
		}
		k.B = b
	}
	if err := k.valid(); err != nil {
		return ShardKey{}, err
	}
	return k, nil
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/admin/join":
		rt.adminJoin(w, r)
		return
	case "/admin/drain":
		rt.adminDrain(w, r)
		return
	case "/admin/membership":
		rt.adminMembership(w, r)
		return
	}
	if _, ok := queryEndpoints[r.URL.Path]; !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("serve: unknown endpoint %q", r.URL.Path))
		return
	}
	key, err := rt.requestKey(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	obsRouteQueries.Inc()
	var span *obs.Span
	if rt.cfg.Tracer != nil {
		span = rt.cfg.Tracer.Start("route:" + key.String())
		defer span.End()
	}
	// Snapshot epoch, ring and owner links under the lock, route outside
	// it: rings are immutable once built, so a cutover promoting a new
	// one cannot disturb a query already routing under the old epoch.
	rt.mu.Lock()
	epoch := rt.mem.Epoch
	owners := rt.ring.Owners(key, rt.cfg.Replicas)
	clients := make([]*peerClient, len(owners))
	for i, o := range owners {
		clients[i] = rt.peers[o]
	}
	rt.mu.Unlock()
	payload := shardRequest{Key: key, Path: r.URL.Path, RawQuery: r.URL.RawQuery, Epoch: epoch}.encode()
	for i, p := range clients {
		if p == nil {
			continue
		}
		typ, raw, err := p.exchange(frameShardQuery, payload, rt.cfg.ReplyTimeout)
		if err == nil && typ != frameShardReply {
			err = fmt.Errorf("serve: peer %s answered frame type %d", p.name, typ)
		}
		var rep shardReply
		if err == nil {
			rep, err = decodeShardReply(raw)
		}
		if span != nil {
			c := span.Child("forward:" + p.name)
			c.SetBool("ok", err == nil)
			c.End()
		}
		if err != nil {
			if errors.Is(err, errPeerDown) {
				// Known down: redial backoff pending (or the dial itself
				// failed). No query was attempted on a live link, so this is
				// a skip, not a failover.
				obsForwardSkipped.Inc()
			} else {
				obsForwardErrors.Inc()
				if i+1 < len(clients) {
					obsFailoverTotal.Inc()
				}
			}
			continue
		}
		writeShardReply(w, rep)
		return
	}
	obsRouteUnavailable.Inc()
	w.Header().Set("Retry-After", strconv.Itoa(retryHint(clients)))
	httpError(w, http.StatusServiceUnavailable,
		fmt.Errorf("serve: no replica of %s reachable", key))
}

// adminJoin handles POST /admin/join?name=N&addr=A.
func (rt *Router) adminJoin(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("serve: join requires POST"))
		return
	}
	q := r.URL.Query()
	mem, err := rt.Join(q.Get("name"), q.Get("addr"))
	if err != nil {
		httpError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, mem)
}

// adminDrain handles POST /admin/drain?name=N.
func (rt *Router) adminDrain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("serve: drain requires POST"))
		return
	}
	mem, err := rt.Drain(r.URL.Query().Get("name"))
	if err != nil {
		httpError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, mem)
}

// adminMembership handles GET /admin/membership.
func (rt *Router) adminMembership(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, rt.Membership())
}

// writeShardReply relays a node's answer, stamping the answering
// replica's identity and epoch so clients (and tests) can see who
// served them and under which ring.
func writeShardReply(w http.ResponseWriter, rep shardReply) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("X-Dwserve-Node", rep.Node)
	h.Set("X-Dwserve-Role", rep.Role)
	h.Set("X-Dwserve-Epoch", strconv.FormatInt(rep.Epoch, 10))
	if rep.DegradedB > 0 {
		h.Set("X-Dwserve-Degraded-B", strconv.Itoa(rep.DegradedB))
	}
	w.WriteHeader(rep.Status)
	w.Write(rep.Body)
}

// retryHint derives the Retry-After hint for a fully-unavailable shard
// from the soonest redial across its owners — the earliest moment a
// retry could possibly succeed — instead of a bare constant.
func retryHint(clients []*peerClient) int {
	var soonest time.Time
	for _, p := range clients {
		if p == nil {
			continue
		}
		at := p.retryAt()
		if soonest.IsZero() || at.Before(soonest) {
			soonest = at
		}
	}
	return retrySeconds(time.Until(soonest))
}

// Close stops the heartbeats and tears down every peer link.
func (rt *Router) Close() error {
	rt.stopOnce.Do(func() { close(rt.stop) })
	rt.wg.Wait()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, p := range rt.peers {
		p.close()
	}
	return nil
}

// errPeerDown marks a forward that never reached a live link: the
// peer's redial backoff is pending, or the dial itself failed.
var errPeerDown = errors.New("serve: peer link down")

// peerClient is one lazily-dialed, persistent link to a serve node.
// exchange pairs each send with its reply under the lock, so queries
// and heartbeats never interleave frames.
type peerClient struct {
	name        string
	addr        string
	dialTimeout time.Duration
	bo          *mr.Backoff
	gone        chan struct{} // closed when the peer leaves membership

	mu    sync.Mutex
	conn  *mr.PeerConn // guarded by mu — nil when down
	fails int          // guarded by mu — consecutive failures
	next  time.Time    // guarded by mu — no redial before this
}

// exchange sends one frame and reads its reply. An errPeerDown result
// means no live link was available; any other error means the link
// failed mid-exchange (and was torn down for backoff).
func (p *peerClient) exchange(typ byte, payload []byte, replyTimeout time.Duration) (byte, []byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn == nil {
		if time.Now().Before(p.next) {
			return 0, nil, fmt.Errorf("%w: %s backed off for %s",
				errPeerDown, p.name, time.Until(p.next).Round(time.Millisecond))
		}
		conn, err := mr.DialPeer(p.addr, p.dialTimeout, chaosForward)
		if err != nil {
			p.fails++
			p.next = time.Now().Add(p.bo.Delay(p.fails))
			return 0, nil, fmt.Errorf("%w: dial %s: %v", errPeerDown, p.name, err)
		}
		p.conn = conn
		p.fails = 0
		obsPeersUp.Add(1)
	}
	p.conn.SetDeadline(time.Now().Add(replyTimeout))
	if err := p.conn.Send(typ, payload); err != nil {
		p.dropLocked()
		return 0, nil, fmt.Errorf("serve: send to %s: %w", p.name, err)
	}
	rtyp, raw, err := p.conn.Recv()
	if err != nil {
		p.dropLocked()
		return 0, nil, fmt.Errorf("serve: recv from %s: %w", p.name, err)
	}
	return rtyp, raw, nil
}

// dropLocked tears the link down and starts its redial backoff. Caller
// holds mu.
func (p *peerClient) dropLocked() {
	p.conn.Close()
	p.conn = nil
	obsPeersUp.Add(-1)
	p.fails++
	p.next = time.Now().Add(p.bo.Delay(p.fails))
}

// retryAt reports when this peer will next be dialed.
func (p *peerClient) retryAt() time.Time {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn != nil {
		return time.Now()
	}
	return p.next
}

func (p *peerClient) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn != nil {
		p.conn.Close()
		p.conn = nil
		obsPeersUp.Add(-1)
	}
}
