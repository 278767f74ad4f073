package serve

import "dwmaxerr/internal/obs"

// Query-serving metrics (serve_* prefix), the package's full namespace in
// one place (enforced by dwlint's metricname analyzer). parseQuery
// counts queries, so only recognized endpoints contribute; bad requests
// are counted once per rejected query, in httpError or badRequest.
var (
	obsInfoQueries  = obs.Default.Counter("serve_info_queries")
	obsPointQueries = obs.Default.Counter("serve_point_queries")
	obsRangeQueries = obs.Default.Counter("serve_range_queries")
	obsCoefQueries  = obs.Default.Counter("serve_coefficient_queries")
	obsBadRequests  = obs.Default.Counter("serve_bad_requests")

	// Admission gate (limits.go): queries turned away at the door, queries
	// cut off by the per-query deadline, and the live in-flight level.
	obsRejected = obs.Default.Counter("serve_rejected_total")
	obsTimeouts = obs.Default.Counter("serve_timeouts_total")
	obsInflight = obs.Default.Gauge("serve_inflight")

	// Streaming ingest endpoint: POST /ingest requests, individual values
	// accepted, and pushes the ingestor refused (injected fault, poisoned
	// checkpoint, closed) — a refused push ends its request early, so one
	// request contributes at most one error.
	obsIngestRequests = obs.Default.Counter("serve_ingest_requests")
	obsIngestValues   = obs.Default.Counter("serve_ingest_values")
	obsIngestErrors   = obs.Default.Counter("serve_ingest_errors")

	// Shard node (node.go): queries answered over the peer transport,
	// queries for shards the ring says this node does not own (a routing
	// bug or a membership disagreement — zero in a healthy cluster), the
	// decoded-synopsis cache, queries shed outright under overload, and
	// queries answered from a coarser cached synopsis instead of shedding.
	obsShardQueries  = obs.Default.Counter("serve_shard_queries")
	obsShardNotOwned = obs.Default.Counter("serve_shard_not_owned")
	obsShardHits     = obs.Default.Counter("serve_shard_cache_hits")
	obsShardMisses   = obs.Default.Counter("serve_shard_cache_misses")
	obsShardEvicted  = obs.Default.Counter("serve_shard_cache_evictions")
	obsShardWarm     = obs.Default.Gauge("serve_shard_warm")
	obsShardShed     = obs.Default.Counter("serve_shard_shed_total")
	obsShardDegraded = obs.Default.Counter("serve_shard_degraded_total")

	// Membership & rebalancing (node.go, router.go): the current ring
	// epoch (set by a node when it commits, by the router when it cuts
	// over — in one process they agree once cutover completes), epoch
	// bumps the router committed (exactly one per membership change),
	// queries tagged with an epoch the node does not recognize (a
	// legitimate cutover race or a restarted process — never counted as
	// serve_shard_not_owned), shards warmed by prepare before a node acks
	// a proposed epoch, shards evicted at commit because the new ring
	// moved them elsewhere, and cache entries the post-commit
	// anti-entropy audit had to fix (owned but cold, or a stale role).
	obsEpoch            = obs.Default.Gauge("serve_epoch")
	obsEpochBumps       = obs.Default.Counter("serve_epoch_bumps_total")
	obsEpochStale       = obs.Default.Counter("serve_epoch_stale_queries")
	obsRebalanceWarmed  = obs.Default.Counter("serve_rebalance_warmed_total")
	obsRebalanceEvicted = obs.Default.Counter("serve_rebalance_evicted_total")
	obsRebalanceAudit   = obs.Default.Counter("serve_rebalance_audit_fixed_total")

	// Failure detector (router.go): members that crossed the suspect
	// threshold of consecutive missed heartbeats, and members the
	// detector demoted from membership (each demotion is an epoch bump).
	obsDetectorSuspects = obs.Default.Counter("serve_detector_suspects_total")
	obsDetectorDeaths   = obs.Default.Counter("serve_detector_deaths_total")

	// Stray fills (cache.go): cache inserts for shards the node does not
	// own — answered honestly but confined to a small evict-first
	// segment so a burst of misrouted queries cannot evict owned shards.
	obsStrayFills = obs.Default.Counter("serve_shard_stray_fills")

	// Router (router.go): queries routed, forward attempts that failed on
	// a live connection, owners skipped because their link was already
	// known down (redial backoff pending), failovers — a query answered by
	// a later replica after an earlier one actually failed mid-attempt —
	// queries no replica could answer, and the live peer-link gauge.
	obsRouteQueries     = obs.Default.Counter("serve_route_queries")
	obsForwardErrors    = obs.Default.Counter("serve_forward_errors")
	obsForwardSkipped   = obs.Default.Counter("serve_forward_skipped")
	obsFailoverTotal    = obs.Default.Counter("serve_failover_total")
	obsRouteUnavailable = obs.Default.Counter("serve_route_unavailable")
	obsPeersUp          = obs.Default.Gauge("serve_peers_up")
)
