package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dwmaxerr/internal/chaos"
	"dwmaxerr/internal/greedy"
	"dwmaxerr/internal/mr"
)

// In-process cluster tests: nodes on loopback listeners, a router in
// front, real peer-transport frames in between. The soak variant lives
// in cluster_soak_test.go.

// writeClusterStore builds a store directory with budgets 1, 2 and 4 of
// the paper dataset plus single-budget datasets to spread across owners.
func writeClusterStore(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, b := range []int{1, 2, 4} {
		syn, maxAbs, err := greedy.SynopsisAbs(paperData, b)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteShard(dir, ShardKey{Dataset: "paper", B: b, Metric: "abs"}, syn, maxAbs); err != nil {
			t.Fatal(err)
		}
	}
	for i, ds := range []string{"alpha", "bravo", "charlie"} {
		data := make([]float64, len(paperData))
		for j, v := range paperData {
			data[j] = v * float64(i+2)
		}
		syn, maxAbs, err := greedy.SynopsisAbs(data, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteShard(dir, ShardKey{Dataset: ds, B: 4, Metric: "abs"}, syn, maxAbs); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

type testCluster struct {
	nodes  map[string]*Node
	addrs  map[string]string
	router *Router
	http   *httptest.Server
	ring   *Ring
}

// startCluster boots named nodes over one store directory, warms them,
// and fronts them with a router whose defaults are paper/b4/abs. rtweak,
// when non-nil, adjusts the router config (heartbeat cadence, detector
// thresholds) before the router starts.
func startCluster(t *testing.T, dir string, names []string, replicas int, tweak func(*NodeConfig), rtweak func(*RouterConfig)) *testCluster {
	t.Helper()
	tc := &testCluster{nodes: map[string]*Node{}, addrs: map[string]string{}, ring: NewRing(0, names...)}
	peers := make([]Peer, 0, len(names))
	for _, name := range names {
		n, addr := startNode(t, dir, name, names, replicas, tweak)
		tc.nodes[name] = n
		tc.addrs[name] = addr
		peers = append(peers, Peer{Name: name, Addr: addr})
	}
	rcfg := RouterConfig{
		Peers: peers, Replicas: replicas,
		Dataset: "paper", B: 4, Metric: "abs",
	}
	if rtweak != nil {
		rtweak(&rcfg)
	}
	rt, err := NewRouter(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	tc.router = rt
	tc.http = httptest.NewServer(rt)
	t.Cleanup(tc.http.Close)
	return tc
}

// startNode boots and warms one serve node on a loopback listener,
// returning it with its shard address. names is the node's own initial
// membership — a node joining an established cluster starts knowing
// only itself and learns the rest from the router's Prepare.
func startNode(t *testing.T, dir, name string, names []string, replicas int, tweak func(*NodeConfig)) (*Node, string) {
	t.Helper()
	cfg := NodeConfig{Name: name, Nodes: names, Replicas: replicas, Store: DirStore{Dir: dir}}
	if tweak != nil {
		tweak(&cfg)
	}
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Warm(); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go n.Serve(ln)
	t.Cleanup(func() { n.Close() })
	return n, ln.Addr().String()
}

func getBody(t *testing.T, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, body
}

// TestClusterRoutesToRingOwners: every query lands on the shard's ring
// primary, answers — and the 400s of badQueries — match a standalone
// server's status and body byte for byte, on guaranteed shards and on
// one without a guarantee, and no node ever serves a shard it does not
// own.
func TestClusterRoutesToRingOwners(t *testing.T) {
	dir := writeClusterStore(t)
	syn, _, err := greedy.SynopsisAbs(paperData, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteShard(dir, ShardKey{Dataset: "unguaranteed", B: 4, Metric: "abs"}, syn, 0); err != nil {
		t.Fatal(err)
	}
	names := []string{"n1", "n2", "n3"}
	tc := startCluster(t, dir, names, 1, nil, nil)
	notOwned := obsShardNotOwned.Value()

	queries := append([]string{"/point?i=3", "/range?lo=1&hi=6", "/coefficients"}, badQueries...)
	for _, ds := range []string{"paper", "alpha", "bravo", "charlie", "unguaranteed"} {
		key := ShardKey{Dataset: ds, B: 4, Metric: "abs"}
		sh, err := DirStore{Dir: dir}.Load(key)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := New(sh.Syn, sh.MaxAbs)
		if err != nil {
			t.Fatal(err)
		}
		ref := httptest.NewServer(direct)
		for _, q := range queries {
			sep := "?"
			if strings.Contains(q, "?") {
				sep = "&"
			}
			status, hdr, body := getBody(t, tc.http.URL+q+sep+"dataset="+ds)
			if want := tc.ring.Owner(key); hdr.Get("X-Dwserve-Node") != want {
				t.Errorf("%s dataset=%s answered by %q, ring owner is %q", q, ds, hdr.Get("X-Dwserve-Node"), want)
			}
			if role := hdr.Get("X-Dwserve-Role"); role != "primary" {
				t.Errorf("%s dataset=%s role %q, want primary", q, ds, role)
			}
			wantStatus, _, want := getBody(t, ref.URL+q)
			if status != wantStatus || string(body) != string(want) {
				t.Errorf("%s dataset=%s: cluster answered %d %q, standalone %d %q", q, ds, status, body, wantStatus, want)
			}
		}
		ref.Close()
	}
	if d := obsShardNotOwned.Value() - notOwned; d != 0 {
		t.Errorf("serve_shard_not_owned grew by %d; routing disagrees with ring ownership", d)
	}
}

// TestClusterInfoReportsShardIdentity: /info through the router names
// the answering node, the shard, and the node's ring role — including
// after the primary dies and a replica answers.
func TestClusterInfoReportsShardIdentity(t *testing.T) {
	dir := writeClusterStore(t)
	names := []string{"east", "west"}
	tc := startCluster(t, dir, names, 2, nil, nil)
	key := ShardKey{Dataset: "paper", B: 4, Metric: "abs"}
	owners := tc.ring.Owners(key, 2)

	var info Info
	status, hdr, body := getBody(t, tc.http.URL+"/info")
	if status != http.StatusOK {
		t.Fatalf("/info: status %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Node != owners[0] || info.Role != "primary" || info.Shard != key.String() {
		t.Fatalf("info identity %q/%q/%q, want %q/primary/%q", info.Node, info.Role, info.Shard, owners[0], key)
	}

	// Kill the primary: the replica answers and says so honestly.
	tc.nodes[owners[0]].Close()
	status, hdr, body = getBody(t, tc.http.URL+"/info")
	if status != http.StatusOK {
		t.Fatalf("/info after primary death: status %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Node != owners[1] || info.Role != "replica-1" {
		t.Fatalf("failover info identity %q/%q, want %q/replica-1", info.Node, info.Role, owners[1])
	}
	if hdr.Get("X-Dwserve-Role") != "replica-1" {
		t.Fatalf("failover role header %q, want replica-1", hdr.Get("X-Dwserve-Role"))
	}
}

// TestClusterDegradesToCoarserSynopsis: with the node's single
// in-flight slot held by a stalled query, a concurrent query for
// paper/b4 is answered from the warm b2 synopsis (degraded, 200) and a
// query with no coarser sibling is shed with an honest 503 whose body is
// JSON even though the node's name needs escaping. Two raw peer
// connections drive the node, since a router serializes exchanges per
// link.
func TestClusterDegradesToCoarserSynopsis(t *testing.T) {
	if err := chaos.EnableSpec("3,serve.replica:delay=600ms#1"); err != nil {
		t.Fatal(err)
	}
	defer chaos.Disable()
	const name = `so"lo`
	dir := writeClusterStore(t)
	tc := startCluster(t, dir, []string{name}, 1, func(cfg *NodeConfig) {
		cfg.MaxInFlight = 1
	}, nil)
	degraded := obsShardDegraded.Value()
	shed := obsShardShed.Value()

	c1, err := mr.DialPeer(tc.addrs[name], time.Second, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := mr.DialPeer(tc.addrs[name], time.Second, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	paper := shardRequest{Key: ShardKey{Dataset: "paper", B: 4, Metric: "abs"}, Path: "/point", RawQuery: "i=0"}
	if err := c1.Send(frameShardQuery, paper.encode()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond) // let the stalled query take the slot

	ask := func(conn *mr.PeerConn, req shardRequest) shardReply {
		t.Helper()
		if err := conn.Send(frameShardQuery, req.encode()); err != nil {
			t.Fatal(err)
		}
		typ, raw, err := conn.Recv()
		if err != nil || typ != frameShardReply {
			t.Fatalf("recv: typ %d, err %v", typ, err)
		}
		rep, err := decodeShardReply(raw)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	rep := ask(c2, paper)
	if rep.Status != http.StatusOK || rep.DegradedB != 2 {
		t.Fatalf("degraded query: status %d degradedB %d, want 200 with fallback to 2", rep.Status, rep.DegradedB)
	}
	alpha := shardRequest{Key: ShardKey{Dataset: "alpha", B: 4, Metric: "abs"}, Path: "/point", RawQuery: "i=0"}
	rep = ask(c2, alpha)
	if rep.Status != http.StatusServiceUnavailable {
		t.Fatalf("no-coarser query: status %d, want 503 shed", rep.Status)
	}
	checkErrorBody(t, rep.Body, name)
	typ, raw, err := c1.Recv()
	if err != nil || typ != frameShardReply {
		t.Fatalf("stalled query: typ %d, err %v", typ, err)
	}
	if rep, err := decodeShardReply(raw); err != nil || rep.Status != http.StatusOK {
		t.Fatalf("stalled query finished with %d (err %v)", rep.Status, err)
	}
	if d := obsShardDegraded.Value() - degraded; d != 1 {
		t.Errorf("serve_shard_degraded_total grew by %d, want 1", d)
	}
	if d := obsShardShed.Value() - shed; d != 1 {
		t.Errorf("serve_shard_shed_total grew by %d, want 1", d)
	}
}

// failingStore holds no shards and fails every load with err.
type failingStore struct{ err error }

func (s failingStore) Load(ShardKey) (*Shard, error) { return nil, s.err }
func (s failingStore) Keys() ([]ShardKey, error)     { return nil, nil }

// TestClusterStoreMissBodyIsJSON: a shard the store cannot load answers
// 404 through the router with a JSON error body, whatever bytes the
// store's error carries.
func TestClusterStoreMissBodyIsJSON(t *testing.T) {
	loadErr := errors.New("shard \"paper\" unreadable: \x01")
	tc := startCluster(t, t.TempDir(), []string{"n1"}, 1, func(cfg *NodeConfig) {
		cfg.Store = failingStore{loadErr}
	}, nil)
	status, _, body := getBody(t, tc.http.URL+"/point?i=0")
	if status != http.StatusNotFound {
		t.Fatalf("status %d, want 404: %s", status, body)
	}
	checkErrorBody(t, body, loadErr.Error())
}

// checkErrorBody asserts body is a newline-terminated JSON error object
// whose message contains want.
func checkErrorBody(t *testing.T, body []byte, want string) {
	t.Helper()
	var e errorBody
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("error body %q is not JSON: %v", body, err)
	}
	if !strings.Contains(e.Error, want) || !bytes.HasSuffix(body, []byte("\n")) {
		t.Fatalf("error body %q: want a newline-terminated error containing %q", body, want)
	}
}

// TestShardStoreRoundTrip pins the store layout: key→file→key is the
// identity, the guarantee trailer survives, and plain trailerless DWS1
// files load with guarantee 0.
func TestShardStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	syn, maxAbs, err := greedy.SynopsisAbs(paperData, 3)
	if err != nil {
		t.Fatal(err)
	}
	key := ShardKey{Dataset: "round_trip-1", B: 3, Metric: "abs"}
	if err := WriteShard(dir, key, syn, maxAbs); err != nil {
		t.Fatal(err)
	}
	st := DirStore{Dir: dir}
	keys, err := st.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != key {
		t.Fatalf("Keys() = %v, want [%v]", keys, key)
	}
	sh, err := st.Load(key)
	if err != nil {
		t.Fatal(err)
	}
	if sh.MaxAbs != maxAbs || sh.Syn.N != syn.N || sh.Syn.Size() != syn.Size() {
		t.Fatalf("loaded shard differs: maxAbs %v vs %v", sh.MaxAbs, maxAbs)
	}
	// A guarantee-less shard (older tooling) loads with MaxAbs 0.
	bare := ShardKey{Dataset: "bare", B: 3, Metric: "abs"}
	if err := WriteShard(dir, bare, syn, 0); err != nil {
		t.Fatal(err)
	}
	sh, err = st.Load(bare)
	if err != nil {
		t.Fatal(err)
	}
	if sh.MaxAbs != 0 {
		t.Fatalf("bare shard guarantee %v, want 0", sh.MaxAbs)
	}
	if _, err := st.Load(ShardKey{Dataset: "../evil", B: 1, Metric: "abs"}); err == nil {
		t.Fatal("path-escaping dataset name was accepted")
	}
	if _, err := st.Load(ShardKey{Dataset: "missing", B: 9, Metric: "abs"}); err == nil {
		t.Fatal("missing shard loaded")
	}
}

// TestShardWireRoundTrip pins the request/reply codecs, including the
// truncation checks a hostile or corrupted payload hits.
func TestShardWireRoundTrip(t *testing.T) {
	req := shardRequest{
		Key:      ShardKey{Dataset: "paper", B: 4, Metric: "abs"},
		Path:     "/range",
		RawQuery: "lo=1&hi=6&dataset=paper",
		Epoch:    7,
	}
	got, err := decodeShardRequest(req.encode())
	if err != nil || got != req {
		t.Fatalf("request round trip: %+v, err %v", got, err)
	}
	rep := shardReply{Status: 200, DegradedB: 2, Node: "east", Role: "replica-1", Epoch: 7, Body: []byte(`{"x":1}`)}
	back, err := decodeShardReply(rep.encode())
	if err != nil || back.Status != rep.Status || back.DegradedB != rep.DegradedB ||
		back.Node != rep.Node || back.Role != rep.Role || back.Epoch != rep.Epoch ||
		string(back.Body) != string(rep.Body) {
		t.Fatalf("reply round trip: %+v, err %v", back, err)
	}
	for cut := 0; cut < len(rep.encode()); cut++ {
		if _, err := decodeShardReply(rep.encode()[:cut]); err == nil && cut < len(rep.encode())-len(rep.Body) {
			t.Fatalf("truncation at %d decoded cleanly", cut)
		}
	}
	if _, err := decodeShardRequest([]byte{0xff}); err == nil {
		t.Fatal("garbage request decoded")
	}

	// Membership control codec: prepares carry the full member list, naks
	// their reason; truncations must never decode cleanly.
	ctl := epochCtl{Kind: epochCtlPrepare, Mem: NewMembership(3, "west", "east", "north"), Count: 12, Err: "why"}
	cback, err := decodeEpochCtl(ctl.encode())
	if err != nil || cback.Kind != ctl.Kind || cback.Mem.Epoch != ctl.Mem.Epoch ||
		len(cback.Mem.Members) != 3 || cback.Mem.Members[0] != "east" ||
		cback.Count != ctl.Count || cback.Err != ctl.Err {
		t.Fatalf("epoch control round trip: %+v, err %v", cback, err)
	}
	for cut := 0; cut < len(ctl.encode()); cut++ {
		if _, err := decodeEpochCtl(ctl.encode()[:cut]); err == nil {
			t.Fatalf("epoch control truncation at %d decoded cleanly", cut)
		}
	}
}

// BenchmarkRingOwners guards against accidentally quadratic lookups.
func BenchmarkRingOwners(b *testing.B) {
	r := NewRing(128, "a", "b", "c", "d", "e", "f")
	k := ShardKey{Dataset: "paper", B: 4, Metric: "abs"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Owners(k, 2)
	}
}
