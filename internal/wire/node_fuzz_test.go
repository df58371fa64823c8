package wire

import (
	"bytes"
	"encoding/json"
	"testing"
)

// Fuzzers for the multi-node ingest surface (POST /v1/nodes and POST
// /v1/replicate), under the same contract as the /v1 decoders: arbitrary
// bytes yield a typed error or a message that survives an encode/decode
// round trip — never a panic, never silent garbage.

func FuzzDecodeNodeMap(f *testing.F) {
	f.Add([]byte(`{"epoch":1,"partitions":4,"nodes":[{"id":"n1","addr":"http://127.0.0.1:8080","primary":[0,1],"replica":[2,3]}]}`))
	f.Add([]byte(`{"epoch":0,"partitions":1,"nodes":[{"id":"a","addr":"x"}]}`))
	f.Add([]byte(`{"partitions":2,"nodes":[{"id":"a","addr":"x","primary":[0]},{"id":"b","addr":"y","primary":[1],"replica":[0]}]}`))
	f.Add([]byte(`{"partitions":-1,"nodes":[]}`))
	f.Add([]byte(`{"partitions":4,"nodes":[{"id":"a","addr":"x","primary":[9]}]}`))
	f.Add([]byte(`{"partitions":4,"nodes":[{"id":"a","addr":"x"},{"id":"a","addr":"y"}]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(``))
	f.Add([]byte(`[1,2,3]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeNodeMap(data)
		if err != nil {
			if m != nil {
				t.Fatal("error with non-nil node map")
			}
			return
		}
		if m.Partitions < 1 || m.Partitions > MaxNodePartitions {
			t.Fatalf("accepted partitions %d", m.Partitions)
		}
		if len(m.Nodes) == 0 || len(m.Nodes) > MaxNodes {
			t.Fatalf("accepted %d nodes", len(m.Nodes))
		}
		for _, n := range m.Nodes {
			for _, p := range append(append([]int(nil), n.Primary...), n.Replica...) {
				if p < 0 || p >= m.Partitions {
					t.Fatalf("accepted out-of-range partition %d", p)
				}
			}
		}
		re, err := EncodeNodeMap(m)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		m2, err := DecodeNodeMap(re)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		re2, _ := EncodeNodeMap(m2)
		if !bytes.Equal(re, re2) {
			t.Fatalf("round trip diverged: %s vs %s", re, re2)
		}
	})
}

func FuzzDecodeReplBatch(f *testing.F) {
	f.Add([]byte(`{"epoch":1,"partition":0,"seq":7,"users":[{"uid":9,"liked":[1,2],"disliked":[3],"neighbors":[4],"recs":[5]}]}`))
	f.Add([]byte(`{"epoch":2,"partition":3,"seq":1,"full":true,"users":[]}`))
	f.Add([]byte(`{"epoch":1,"partition":2,"seq":4,"users":null,"ratings":[{"uid":7,"item":9,"liked":true},{"uid":8,"item":9,"liked":false}]}`)) // delta-only
	f.Add([]byte(`{"epoch":1,"partition":2,"seq":5,"users":[{"uid":7,"liked":[1]}],"ratings":[{"uid":7,"item":9,"liked":true}]}`))               // mixed
	f.Add([]byte(`{"ratings":[{"uid":-1}]}`))
	f.Add([]byte(`{"partition":-1}`))
	f.Add([]byte(`{"users":null}`))
	f.Add([]byte(`{"users":[{"uid":4294967295}]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(``))
	f.Add([]byte(`"x"`))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeReplBatch(data)
		if err != nil {
			if b != nil {
				t.Fatal("error with non-nil batch")
			}
			return
		}
		if b.Partition < 0 || b.Partition >= MaxNodePartitions {
			t.Fatalf("accepted partition %d", b.Partition)
		}
		if len(b.Users) > MaxReplUsers {
			t.Fatalf("accepted %d users", len(b.Users))
		}
		if len(b.Ratings) > MaxReplRatings {
			t.Fatalf("accepted %d ratings", len(b.Ratings))
		}
		re, err := EncodeReplBatch(b)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		var b2 ReplBatch
		if err := json.Unmarshal(re, &b2); err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		re2, _ := EncodeReplBatch(&b2)
		if !bytes.Equal(re, re2) || len(b2.Ratings) != len(b.Ratings) {
			t.Fatalf("round trip diverged: %s vs %s", re, re2)
		}
	})
}
