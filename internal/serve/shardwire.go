package serve

import (
	"encoding/binary"
	"fmt"
	"math"

	"dwmaxerr/internal/mr"
)

// Shard query codec for router↔node peer links. The transport is the mr
// engine's framed wire protocol (mr.PeerConn: preamble/version gate,
// CRC32-C trailers, chaos instrumentation); this file defines the serve
// tier's two frame types in the peer frame space and their payloads.
// Fields are uvarint-length-prefixed strings and uvarint integers —
// same style as the engine's payload encodings, no reflection.

const (
	// frameShardQuery carries a shardRequest from router to node.
	frameShardQuery = mr.PeerFrameBase + 0
	// frameShardReply carries a shardReply back.
	frameShardReply = mr.PeerFrameBase + 1
)

// Membership control sub-types, carried in mr.FrameEpoch frames (the
// chaos-exempt control lane). Prepare proposes epoch E+1 with the full
// member list; the node warms every shard it would own under E+1 and
// answers Ack (or Nak with an error). Commit promotes the pending epoch
// and triggers the node's eviction + anti-entropy audit.
const (
	epochCtlPrepare = byte(1)
	epochCtlCommit  = byte(2)
	epochCtlAck     = byte(3)
	epochCtlNak     = byte(4)
)

// epochCtl is one membership control message. Mem carries the full
// membership on Prepare; only the epoch matters on Commit/Ack. Count
// reports work done (shards warmed on a prepare ack, evicted on a
// commit ack); Err carries the Nak reason.
type epochCtl struct {
	Kind  byte
	Mem   Membership
	Count int64
	Err   string
}

// shardRequest is one proxied query: which shard, which endpoint, and
// the client's raw query string. Epoch is the ring epoch the router
// routed under — the node uses it to tell a routing bug (epochs agree,
// ownership doesn't) from a query legitimately in flight across a
// membership cutover.
type shardRequest struct {
	Key      ShardKey
	Path     string // a queryEndpoints path
	RawQuery string
	Epoch    int64
}

// shardReply is the node's answer. Status and Body are what a
// standalone server would write for the same request; Node and Role
// identify who actually answered (surfaced as X-Dwserve-* headers by
// the router); DegradedB is non-zero when overload forced a coarser
// synopsis; Epoch is the ring epoch the node answered under.
type shardReply struct {
	Status    int
	DegradedB int
	Node      string
	Role      string
	Epoch     int64
	Body      []byte
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// cursor is a bounds-checked payload reader; the first decode error
// sticks so call sites stay linear.
type cursor struct {
	buf []byte
	off int
	err error
}

func (c *cursor) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.buf[c.off:])
	if n <= 0 {
		c.err = fmt.Errorf("serve: truncated uvarint at offset %d", c.off)
		return 0
	}
	c.off += n
	return v
}

func (c *cursor) string() string {
	n := c.uvarint()
	if c.err != nil {
		return ""
	}
	if n > uint64(len(c.buf)-c.off) {
		c.err = fmt.Errorf("serve: string of %d bytes overruns payload", n)
		return ""
	}
	s := string(c.buf[c.off : c.off+int(n)])
	c.off += int(n)
	return s
}

func (c *cursor) bytes() []byte {
	n := c.uvarint()
	if c.err != nil {
		return nil
	}
	if n > uint64(len(c.buf)-c.off) {
		c.err = fmt.Errorf("serve: bytes of %d overruns payload", n)
		return nil
	}
	b := append([]byte(nil), c.buf[c.off:c.off+int(n)]...)
	c.off += int(n)
	return b
}

func (r shardRequest) encode() []byte {
	b := appendString(nil, r.Key.Dataset)
	b = binary.AppendUvarint(b, uint64(r.Key.B))
	b = appendString(b, r.Key.Metric)
	b = appendString(b, r.Path)
	b = appendString(b, r.RawQuery)
	return binary.AppendUvarint(b, uint64(r.Epoch))
}

func decodeShardRequest(payload []byte) (shardRequest, error) {
	c := &cursor{buf: payload}
	var r shardRequest
	r.Key.Dataset = c.string()
	r.Key.B = int(c.uvarint())
	r.Key.Metric = c.string()
	r.Path = c.string()
	r.RawQuery = c.string()
	r.Epoch = int64(c.uvarint())
	return r, c.err
}

func (r shardReply) encode() []byte {
	b := binary.AppendUvarint(nil, uint64(r.Status))
	b = binary.AppendUvarint(b, uint64(r.DegradedB))
	b = appendString(b, r.Node)
	b = appendString(b, r.Role)
	b = binary.AppendUvarint(b, uint64(r.Epoch))
	b = binary.AppendUvarint(b, uint64(len(r.Body)))
	return append(b, r.Body...)
}

func decodeShardReply(payload []byte) (shardReply, error) {
	c := &cursor{buf: payload}
	var r shardReply
	r.Status = int(c.uvarint())
	r.DegradedB = int(c.uvarint())
	r.Node = c.string()
	r.Role = c.string()
	r.Epoch = int64(c.uvarint())
	r.Body = c.bytes()
	return r, c.err
}

func (e epochCtl) encode() []byte {
	b := []byte{e.Kind}
	b = binary.AppendUvarint(b, uint64(e.Mem.Epoch))
	b = binary.AppendUvarint(b, uint64(len(e.Mem.Members)))
	for _, m := range e.Mem.Members {
		b = appendString(b, m)
	}
	b = binary.AppendUvarint(b, uint64(e.Count))
	return appendString(b, e.Err)
}

func decodeEpochCtl(payload []byte) (epochCtl, error) {
	if len(payload) < 1 {
		return epochCtl{}, fmt.Errorf("serve: empty epoch control payload")
	}
	c := &cursor{buf: payload, off: 1}
	e := epochCtl{Kind: payload[0]}
	e.Mem.Epoch = int64(c.uvarint())
	n := c.uvarint()
	if c.err == nil && n > uint64(len(payload)) {
		return epochCtl{}, fmt.Errorf("serve: membership of %d members overruns payload", n)
	}
	for i := uint64(0); i < n && c.err == nil; i++ {
		e.Mem.Members = append(e.Mem.Members, c.string())
	}
	e.Count = int64(c.uvarint())
	e.Err = c.string()
	return e, c.err
}

// float64tobytes / float64frombytes are the store trailer codec
// (little-endian IEEE 754, matching the DWS1 body encoding).
func float64tobytes(v float64) []byte {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
	return buf[:]
}

func float64frombytes(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}
