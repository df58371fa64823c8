package frame

import (
	"bytes"
	"reflect"
	"testing"

	"hyrec/internal/core"
	"hyrec/internal/wire"
)

// The fuzz targets enforce the decoder contract stated in frame.go:
// arbitrary input yields a value or an error — never a panic, never an
// allocation sized by an unvalidated claim — and every value that
// decodes re-encodes to something that decodes identically.

func FuzzDecodeFrame(f *testing.F) {
	f.Add(AppendFrame(nil, THello, 0, AppendHello(nil, "s", false)))
	f.Add(AppendFrame(nil, TJobPull, 3, AppendUint(nil, 5000)))
	f.Add(AppendFrame(nil, TJob, 3, []byte(`{"uid":1}`)))
	f.Add([]byte{byte(TJob), 0x80, 0x80})
	f.Add(bytes.Repeat([]byte{0x80}, maxHeader+8))
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := DecodeFrame(data, 0)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		re := AppendFrame(nil, fr.Type, fr.Stream, fr.Payload)
		fr2, _, err := DecodeFrame(re, 0)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if fr2.Type != fr.Type || fr2.Stream != fr.Stream || !bytes.Equal(fr2.Payload, fr.Payload) {
			t.Fatalf("re-decode mismatch: %+v vs %+v", fr, fr2)
		}
	})
}

func FuzzDecodeHello(f *testing.F) {
	f.Add(AppendHello(nil, "", false))
	f.Add(AppendHello(nil, "peer-secret", false))
	f.Add(AppendHello(nil, "", true))
	f.Add(AppendHello(nil, "peer-secret", true))
	f.Add(append(AppendHello(nil, "s", false), 2))
	f.Add([]byte("HYF1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		v, secret, forwarded, err := DecodeHello(data)
		if err != nil {
			return
		}
		re := append([]byte(Magic), v)
		re = appendString(re, secret)
		if forwarded {
			re = append(re, 1)
		}
		v2, s2, f2, err := DecodeHello(re)
		if err != nil || v2 != v || s2 != secret || f2 != forwarded {
			t.Fatalf("hello round trip: %v", err)
		}
		if v == Version {
			if !bytes.Equal(AppendHello(nil, secret, forwarded), re) {
				t.Fatalf("AppendHello(%q, %v) disagrees with the decoded form", secret, forwarded)
			}
		}
	})
}

func FuzzDecodeError(f *testing.F) {
	f.Add(AppendError(nil, "moved", "user moved", "http://n2:9", 0))
	f.Add(AppendError(nil, "", "", "", 0))
	f.Add(AppendError(nil, "overloaded", "rating queue full", "", 1000))
	f.Fuzz(func(t *testing.T, data []byte) {
		code, msg, primary, retryMS, err := DecodeError(data)
		if err != nil {
			return
		}
		c2, m2, p2, r2, err := DecodeError(AppendError(nil, code, msg, primary, retryMS))
		if err != nil || c2 != code || m2 != msg || p2 != primary || r2 != retryMS {
			t.Fatalf("error envelope round trip: %v", err)
		}
	})
}

func FuzzDecodeRateBatch(f *testing.F) {
	f.Add(AppendRateBatch(nil, []core.Rating{{User: 1, Item: 2, Liked: true}}))
	f.Add(AppendRateBatch(nil, nil))
	f.Add(appendUvarintT(nil, uint64(wire.MaxBatchRatings)))
	f.Fuzz(func(t *testing.T, data []byte) {
		rs, err := DecodeRateBatch(data, nil)
		if err != nil {
			return
		}
		rs2, err := DecodeRateBatch(AppendRateBatch(nil, rs), nil)
		if err != nil || len(rs2) != len(rs) {
			t.Fatalf("rate batch round trip: %v", err)
		}
		for i := range rs {
			if rs[i] != rs2[i] {
				t.Fatalf("rating %d changed across round trip", i)
			}
		}
	})
}

func FuzzDecodeAckBatch(f *testing.F) {
	f.Add(AppendAckBatch(nil, []Ack{{Lease: 9, Done: true}}))
	f.Add(AppendAckBatch(nil, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		as, err := DecodeAckBatch(data, nil)
		if err != nil {
			return
		}
		as2, err := DecodeAckBatch(AppendAckBatch(nil, as), nil)
		if err != nil || len(as2) != len(as) {
			t.Fatalf("ack batch round trip: %v", err)
		}
		for i := range as {
			if as[i] != as2[i] {
				t.Fatalf("ack %d changed across round trip", i)
			}
		}
	})
}

// FuzzDecodeReplBatch fuzzes the TReplBatch payload: a shipment of
// length-prefixed segments.
func FuzzDecodeReplBatch(f *testing.F) {
	user := wire.ReplUser{UID: 7, Liked: []uint32{1}, Recs: []uint32{2, 3}}
	ratings := []wire.RatingMsg{{UID: 7, Item: 9, Liked: true}, {UID: 8, Item: 9}}
	ship := func(segs ...wire.ReplBatch) []byte { return AppendReplShipment(nil, segs) }
	f.Add(ship(wire.ReplBatch{Epoch: 1, Partition: 2, Seq: 3, Users: []wire.ReplUser{user}}))                   // state-only
	f.Add(ship(wire.ReplBatch{Epoch: 1, Partition: 2, Seq: 4, Ratings: ratings}))                               // delta-only
	f.Add(ship(wire.ReplBatch{Epoch: 1, Partition: 2, Seq: 5, Users: []wire.ReplUser{user}, Ratings: ratings})) // mixed
	f.Add(ship(wire.ReplBatch{Partition: 1, Seq: 4, Ratings: ratings}, wire.ReplBatch{Partition: 6, Seq: 9, Ratings: ratings[:1]}))
	f.Add(ship(wire.ReplBatch{Full: true}, wire.ReplBatch{Full: true}))                        // a partition twice
	f.Add(appendUvarintT(nil, 0))                                                              // an empty shipment
	f.Add(append(appendUvarintT(nil, 1), 0x80))                                                // a truncated length prefix
	f.Add(append(appendUvarintT(nil, 1), append(appendUvarintT(nil, 6), 0, 0, 1, 0, 0, 0)...)) // an empty ratings section
	f.Fuzz(func(t *testing.T, data []byte) {
		segs, err := DecodeReplShipment(data)
		if err != nil {
			if segs != nil {
				t.Fatal("error with non-nil shipment")
			}
			return
		}
		if len(segs) == 0 || len(segs) > wire.MaxNodePartitions {
			t.Fatalf("%d segments escaped bounds", len(segs))
		}
		seen := map[int]bool{}
		users, ratings := 0, 0
		for _, b := range segs {
			if b.Partition < 0 || b.Partition >= wire.MaxNodePartitions || seen[b.Partition] {
				t.Fatalf("partition %d escaped bounds (seen before: %v)", b.Partition, seen[b.Partition])
			}
			seen[b.Partition] = true
			users += len(b.Users)
			ratings += len(b.Ratings)
		}
		if users > wire.MaxReplUsers || ratings > wire.MaxReplRatings || 9*ratings > len(data) {
			t.Fatalf("%d users and %d ratings escaped bounds (%d payload bytes)", users, ratings, len(data))
		}
		segs2, err := DecodeReplShipment(AppendReplShipment(nil, segs))
		if err != nil || !reflect.DeepEqual(segs, segs2) {
			t.Fatalf("repl shipment round trip: %v\n in  %+v\n out %+v", err, segs, segs2)
		}
	})
}

func FuzzDecodeU32s(f *testing.F) {
	f.Add(AppendU32s(nil, []uint32{1, 2, 3}))
	f.Add(AppendU32s(nil, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		xs, rest, err := DecodeU32s(data, nil, 1<<16)
		if err != nil {
			return
		}
		if len(xs) > 1<<16 {
			t.Fatalf("%d items escaped bounds", len(xs))
		}
		_ = rest
	})
}
