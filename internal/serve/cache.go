package serve

import (
	"container/list"
	"sync"
)

// Warm cache of decoded shards. A node answers queries from ready
// views (synopsis, evaluator, guarantee, identity); decoding a shard
// file and building its evaluator is the expensive step, so owned
// shards are preloaded at startup (Node.Warm) and everything else is
// filled on first query and evicted LRU. The cache is also the degradation
// ladder's inventory: under overload a node answers from the coarsest
// warm sibling of the requested shard instead of shedding (see
// shardCache.coarser).
//
// The cache is segmented by ownership. Owned shards live in the main
// LRU; shards the ring does not assign this node (stray fills — a
// misrouted query, or a query legitimately in flight across a
// membership cutover) are confined to a small evict-first side segment
// capped at 1/8 of the main capacity. A burst of stray queries can
// therefore never evict the shards this node is actually responsible
// for — pollution is bounded by construction, not by luck.

// cacheEntry is one warm shard: the view a node's queries are answered
// against. The view carries the node, the shard and the node's ring
// role for it at build time, so /info answers honestly through the
// router and the post-commit audit can spot a stale role.
type cacheEntry struct {
	key  ShardKey
	view *view
}

// cacheSlot wraps an entry with the segment it lives in, so put can
// migrate an entry between segments when ownership changes (a shard
// stray-filled during a cutover becomes owned once the epoch commits).
type cacheSlot struct {
	e     *cacheEntry
	stray bool
}

// shardCache is a two-segment LRU of warm shards. Safe for concurrent
// use.
type shardCache struct {
	cap      int
	strayCap int

	mu    sync.Mutex
	owned *list.List                 // guarded by mu — front is most recent
	stray *list.List                 // guarded by mu — evict-first side segment
	ent   map[ShardKey]*list.Element // guarded by mu — element values are *cacheSlot
}

func newShardCache(capacity int) *shardCache {
	if capacity < 1 {
		capacity = 1
	}
	return &shardCache{
		cap:      capacity,
		strayCap: max(1, capacity/8),
		owned:    list.New(),
		stray:    list.New(),
		ent:      make(map[ShardKey]*list.Element),
	}
}

func (c *shardCache) segmentLocked(stray bool) *list.List {
	if stray {
		return c.stray
	}
	return c.owned
}

// get returns the warm entry for k, refreshing its recency within its
// segment.
func (c *shardCache) get(k ShardKey) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.ent[k]
	if !ok {
		obsShardMisses.Inc()
		return nil, false
	}
	obsShardHits.Inc()
	slot := el.Value.(*cacheSlot)
	c.segmentLocked(slot.stray).MoveToFront(el)
	return slot.e, true
}

// put inserts (or refreshes) an entry in the segment its ownership
// dictates, evicting the least recently used shard of that segment when
// over its capacity. A refresh that changes ownership migrates the
// entry between segments. serve_shard_warm tracks the live count across
// both segments.
func (c *shardCache) put(e *cacheEntry, strayFill bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.ent[e.key]; ok {
		slot := el.Value.(*cacheSlot)
		slot.e = e
		if slot.stray != strayFill {
			c.segmentLocked(slot.stray).Remove(el)
			slot.stray = strayFill
			c.ent[e.key] = c.segmentLocked(strayFill).PushFront(slot)
		} else {
			c.segmentLocked(slot.stray).MoveToFront(el)
		}
		c.trimLocked()
		return
	}
	if strayFill {
		obsStrayFills.Inc()
	}
	c.ent[e.key] = c.segmentLocked(strayFill).PushFront(&cacheSlot{e: e, stray: strayFill})
	obsShardWarm.Add(1)
	c.trimLocked()
}

// trimLocked evicts each segment down to its capacity. Caller holds mu.
func (c *shardCache) trimLocked() {
	for c.owned.Len() > c.cap {
		c.evictBackLocked(c.owned)
	}
	for c.stray.Len() > c.strayCap {
		c.evictBackLocked(c.stray)
	}
}

func (c *shardCache) evictBackLocked(ll *list.List) {
	last := ll.Back()
	ll.Remove(last)
	delete(c.ent, last.Value.(*cacheSlot).e.key)
	obsShardEvicted.Inc()
	obsShardWarm.Add(-1)
}

// peek returns the warm entry for k without touching recency or the
// hit/miss counters — the rebalancer's bookkeeping reads, which must
// not distort the query-path statistics or the LRU order.
func (c *shardCache) peek(k ShardKey) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.ent[k]
	if !ok {
		return nil, false
	}
	return el.Value.(*cacheSlot).e, true
}

// remove drops k from whichever segment holds it, reporting whether it
// was present. The rebalancer's commit-time eviction lands here.
func (c *shardCache) remove(k ShardKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.ent[k]
	if !ok {
		return false
	}
	c.segmentLocked(el.Value.(*cacheSlot).stray).Remove(el)
	delete(c.ent, k)
	obsShardWarm.Add(-1)
	return true
}

// keys snapshots every warm key, for the rebalancer's commit-time sweep.
func (c *shardCache) keys() []ShardKey {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ShardKey, 0, len(c.ent))
	for k := range c.ent {
		out = append(out, k)
	}
	return out
}

// coarser returns the warm entry for the same (dataset, metric) with the
// largest budget strictly below k.B — the next rung down the
// degradation ladder. It deliberately does not touch recency: a degraded
// answer should not keep a coarse shard pinned ahead of shards answering
// at full fidelity.
func (c *shardCache) coarser(k ShardKey) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var best *cacheEntry
	for key, el := range c.ent {
		if key.Dataset != k.Dataset || key.Metric != k.Metric || key.B >= k.B {
			continue
		}
		if best == nil || key.B > best.key.B {
			best = el.Value.(*cacheSlot).e
		}
	}
	return best, best != nil
}

// len returns the number of warm shards across both segments.
func (c *shardCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.owned.Len() + c.stray.Len()
}
