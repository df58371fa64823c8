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
	f.Add(AppendFrame(nil, THello, 0, AppendHello(nil, "s")))
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
	f.Add(AppendHello(nil, ""))
	f.Add(AppendHello(nil, "peer-secret"))
	f.Add([]byte("HYF1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		v, secret, err := DecodeHello(data)
		if err != nil {
			return
		}
		re := append([]byte(Magic), v)
		re = appendString(re, secret)
		v2, s2, err := DecodeHello(re)
		if err != nil || v2 != v || s2 != secret {
			t.Fatalf("hello round trip: %v", err)
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

func FuzzDecodeReplBatch(f *testing.F) {
	user := wire.ReplUser{UID: 7, Liked: []uint32{1}, Recs: []uint32{2, 3}}
	ratings := []wire.RatingMsg{{UID: 7, Item: 9, Liked: true}, {UID: 8, Item: 9}}
	f.Add(AppendReplBatch(nil, &wire.ReplBatch{Epoch: 1, Partition: 2, Seq: 3, Users: []wire.ReplUser{user}}))                   // state-only
	f.Add(AppendReplBatch(nil, &wire.ReplBatch{Epoch: 1, Partition: 2, Seq: 4, Ratings: ratings}))                               // delta-only
	f.Add(AppendReplBatch(nil, &wire.ReplBatch{Epoch: 1, Partition: 2, Seq: 5, Users: []wire.ReplUser{user}, Ratings: ratings})) // mixed
	f.Add(AppendReplBatch(nil, &wire.ReplBatch{Full: true}))
	f.Add(appendUvarintT(appendUvarintT(appendUvarintT(nil, 1), 1), 1))
	f.Add(append(AppendReplBatch(nil, &wire.ReplBatch{Full: true}), 0))         // an empty ratings section
	f.Add(append(AppendReplBatch(nil, &wire.ReplBatch{Seq: 1}), 0xff, 0xff, 3)) // a ratings count past the cap
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeReplBatch(data)
		if err != nil {
			return
		}
		if b.Partition < 0 || b.Partition >= wire.MaxNodePartitions {
			t.Fatalf("partition %d escaped bounds", b.Partition)
		}
		if len(b.Users) > wire.MaxReplUsers {
			t.Fatalf("%d users escaped bounds", len(b.Users))
		}
		if len(b.Ratings) > wire.MaxReplRatings || 9*len(b.Ratings) > len(data) {
			t.Fatalf("%d ratings escaped bounds (%d payload bytes)", len(b.Ratings), len(data))
		}
		b2, err := DecodeReplBatch(AppendReplBatch(nil, b))
		if err != nil || !reflect.DeepEqual(b, b2) {
			t.Fatalf("repl batch round trip: %v\n in  %+v\n out %+v", err, b, b2)
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
