package serve

import (
	"reflect"
	"testing"
)

// FuzzShardWire feeds arbitrary bytes to the three peer-frame decoders a
// node and router run on network input. None may panic, and whatever
// decodes must survive encode → decode unchanged.
func FuzzShardWire(f *testing.F) {
	f.Add(shardRequest{
		Key:      ShardKey{Dataset: "paper", B: 4, Metric: "abs"},
		Path:     "/range",
		RawQuery: "lo=1&hi=6&dataset=paper",
		Epoch:    7,
	}.encode())
	f.Add(shardReply{Status: 200, DegradedB: 2, Node: "east", Role: "replica-1", Epoch: 7, Body: []byte(`{"x":1}`)}.encode())
	f.Add(epochCtl{Kind: epochCtlPrepare, Mem: NewMembership(3, "west", "east", "north"), Count: 12, Err: "why"}.encode())
	f.Add([]byte{0xff})
	f.Fuzz(func(t *testing.T, payload []byte) {
		if req, err := decodeShardRequest(payload); err == nil {
			back, err := decodeShardRequest(req.encode())
			if err != nil || back != req {
				t.Fatalf("request %+v re-decoded as %+v (err %v)", req, back, err)
			}
		}
		if rep, err := decodeShardReply(payload); err == nil {
			back, err := decodeShardReply(rep.encode())
			if err != nil || !reflect.DeepEqual(back, rep) {
				t.Fatalf("reply %+v re-decoded as %+v (err %v)", rep, back, err)
			}
		}
		if ctl, err := decodeEpochCtl(payload); err == nil {
			back, err := decodeEpochCtl(ctl.encode())
			if err != nil || !reflect.DeepEqual(back, ctl) {
				t.Fatalf("epoch control %+v re-decoded as %+v (err %v)", ctl, back, err)
			}
		}
	})
}
