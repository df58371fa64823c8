package frame

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"hyrec/internal/core"
	"hyrec/internal/wire"
)

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte("hello, framed world")
	buf := AppendFrame(nil, TRateBatch, 42, payload)
	f, n, err := DecodeFrame(buf, 0)
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if n != len(buf) {
		t.Fatalf("consumed %d of %d bytes", n, len(buf))
	}
	if f.Type != TRateBatch || f.Stream != 42 || !bytes.Equal(f.Payload, payload) {
		t.Fatalf("round trip mismatch: %+v", f)
	}
}

func TestDecodeFrameShort(t *testing.T) {
	buf := AppendFrame(nil, TJob, 7, bytes.Repeat([]byte{0xab}, 300))
	for i := 0; i < len(buf); i++ {
		if _, _, err := DecodeFrame(buf[:i], 0); !errors.Is(err, ErrShort) {
			t.Fatalf("prefix of %d bytes: want ErrShort, got %v", i, err)
		}
	}
}

func TestDecodeFrameBounds(t *testing.T) {
	// A claimed length beyond maxPayload must fail before the payload
	// arrives — ErrTooLarge, not ErrShort.
	head := []byte{byte(TJob)}
	head = appendUvarintT(head, 1)
	head = appendUvarintT(head, uint64(MaxPayload)+1)
	if _, _, err := DecodeFrame(head, 0); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized claim: want ErrTooLarge, got %v", err)
	}
	// The same claim under an explicit smaller cap.
	head = []byte{byte(TJob)}
	head = appendUvarintT(head, 1)
	head = appendUvarintT(head, 1<<16)
	if _, _, err := DecodeFrame(head, 1024); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("over-cap claim: want ErrTooLarge, got %v", err)
	}
	// An unterminated uvarint longer than any legal header is malformed,
	// not short — a reader must not buffer forever waiting for it.
	evil := append([]byte{byte(TJob)}, bytes.Repeat([]byte{0x80}, maxHeader+4)...)
	if _, _, err := DecodeFrame(evil, 0); !errors.Is(err, ErrMalformed) {
		t.Fatalf("unterminated uvarint: want ErrMalformed, got %v", err)
	}
}

func appendUvarintT(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

func TestHelloRoundTrip(t *testing.T) {
	for _, forwarded := range []bool{false, true} {
		buf := AppendHello(nil, "s3cret", forwarded)
		v, secret, fwd, err := DecodeHello(buf)
		if err != nil {
			t.Fatalf("DecodeHello: %v", err)
		}
		if v != Version || secret != "s3cret" || fwd != forwarded {
			t.Fatalf("got version %d secret %q forwarded %v, want forwarded %v", v, secret, fwd, forwarded)
		}
	}
	// A plain hello keeps its original bytes: no flag byte at all.
	if got := AppendHello(nil, "", false); string(got) != Magic+string([]byte{Version})+"\x00" {
		t.Fatalf("plain hello = %q", got)
	}
	if _, _, _, err := DecodeHello([]byte("NOPE\x01\x00")); err == nil {
		t.Fatal("bad magic accepted")
	}
	for _, tail := range []string{"\x02", "\xff", "\x01\x00", "\x00\x00"} {
		if _, _, _, err := DecodeHello([]byte(Magic + "\x01\x00" + tail)); !errors.Is(err, ErrMalformed) {
			t.Fatalf("hello with tail %q: want ErrMalformed, got %v", tail, err)
		}
	}
	if _, _, fwd, err := DecodeHello([]byte(Magic + "\x01\x00\x00")); err != nil || fwd {
		t.Fatalf("explicit 0 flag: forwarded=%v err=%v, want not forwarded", fwd, err)
	}
}

func TestErrorRoundTrip(t *testing.T) {
	buf := AppendError(nil, "not_primary", "user 9 is elsewhere", "http://other:8080", 0)
	code, msg, primary, retryMS, err := DecodeError(buf)
	if err != nil {
		t.Fatalf("DecodeError: %v", err)
	}
	if code != "not_primary" || msg != "user 9 is elsewhere" || primary != "http://other:8080" || retryMS != 0 {
		t.Fatalf("got %q %q %q retry=%d", code, msg, primary, retryMS)
	}
}

func TestErrorRetryAfterRoundTrip(t *testing.T) {
	// The retry-after hint is an optional trailing uvarint: present on
	// overloaded answers, absent (byte-identical to the old form)
	// everywhere else.
	with := AppendError(nil, "overloaded", "rating queue full", "", 1500)
	without := AppendError(nil, "overloaded", "rating queue full", "", 0)
	if len(with) <= len(without) {
		t.Fatal("retry-after hint not appended")
	}
	code, _, _, retryMS, err := DecodeError(with)
	if err != nil || code != "overloaded" || retryMS != 1500 {
		t.Fatalf("got code=%q retry=%d err=%v", code, retryMS, err)
	}
	if _, _, _, retryMS, err = DecodeError(without); err != nil || retryMS != 0 {
		t.Fatalf("hint-free envelope: retry=%d err=%v", retryMS, err)
	}
}

func TestRateBatchRoundTrip(t *testing.T) {
	in := []core.Rating{
		{User: 1, Item: 100, Liked: true},
		{User: 2, Item: 200, Liked: false},
		{User: 3, Item: 4_000_000_000, Liked: true},
	}
	buf := AppendRateBatch(nil, in)
	out, err := DecodeRateBatch(buf, nil)
	if err != nil {
		t.Fatalf("DecodeRateBatch: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d ratings", len(out))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("rating %d: got %+v want %+v", i, out[i], in[i])
		}
	}
	// A claimed count beyond the bytes present must fail without
	// allocating.
	evil := appendUvarintT(nil, uint64(wire.MaxBatchRatings))
	if _, err := DecodeRateBatch(evil, nil); !errors.Is(err, ErrMalformed) {
		t.Fatalf("inflated count: want ErrMalformed, got %v", err)
	}
	evil = appendUvarintT(nil, uint64(wire.MaxBatchRatings)+1)
	evil = append(evil, bytes.Repeat([]byte{0}, 9*(wire.MaxBatchRatings+1))...)
	if _, err := DecodeRateBatch(evil, nil); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("over-limit count: want ErrTooLarge, got %v", err)
	}
}

func TestAckBatchRoundTrip(t *testing.T) {
	in := []Ack{{Lease: 1, Done: true}, {Lease: 1 << 40, Done: false}, {Lease: 7, Done: true}}
	buf := AppendAckBatch(nil, in)
	out, err := DecodeAckBatch(buf, nil)
	if err != nil {
		t.Fatalf("DecodeAckBatch: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d acks", len(out))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("ack %d: got %+v want %+v", i, out[i], in[i])
		}
	}
	// Lease 0 is the JSON protocol's missing-lease error; the binary
	// path keeps the sentinel.
	zero := AppendAckBatch(nil, []Ack{{Lease: 0, Done: true}})
	if _, err := DecodeAckBatch(zero, nil); !errors.Is(err, wire.ErrMissingLease) {
		t.Fatalf("zero lease: want ErrMissingLease, got %v", err)
	}
}

func TestU32sRoundTrip(t *testing.T) {
	in := []uint32{5, 0, 4_000_000_000, 17}
	buf := AppendU32s(nil, in)
	out, rest, err := DecodeU32s(buf, nil, 64)
	if err != nil {
		t.Fatalf("DecodeU32s: %v", err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("item %d: got %d want %d", i, out[i], in[i])
		}
	}
	if _, _, err := DecodeU32s(buf, nil, 2); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("over-cap: want ErrTooLarge, got %v", err)
	}
}

func TestReplBatchRoundTrip(t *testing.T) {
	in := &wire.ReplBatch{
		Epoch:     3,
		Partition: 5,
		Seq:       99,
		Full:      true,
		Users: []wire.ReplUser{
			{UID: 1, Liked: []uint32{10, 20}, Neighbors: []uint32{2}, Recs: []uint32{30}},
			{UID: 2, Disliked: []uint32{40}},
			{UID: 3},
		},
	}
	segs, err := DecodeReplShipment(AppendReplShipment(nil, []wire.ReplBatch{*in}))
	if err != nil || len(segs) != 1 {
		t.Fatalf("DecodeReplShipment: %d segments, %v", len(segs), err)
	}
	out := &segs[0]
	if out.Epoch != in.Epoch || out.Partition != in.Partition || out.Seq != in.Seq || out.Full != in.Full {
		t.Fatalf("header mismatch: %+v", out)
	}
	if len(out.Users) != len(in.Users) {
		t.Fatalf("got %d users", len(out.Users))
	}
	for i := range in.Users {
		a, b := in.Users[i], out.Users[i]
		if a.UID != b.UID || !eqU32(a.Liked, b.Liked) || !eqU32(a.Disliked, b.Disliked) ||
			!eqU32(a.Neighbors, b.Neighbors) || !eqU32(a.Recs, b.Recs) {
			t.Fatalf("user %d: got %+v want %+v", i, b, a)
		}
	}
	// A binary batch must survive the same JSON round trip the HTTP
	// replicate path applies — semantics equivalence of the two wires.
	jsonBytes, err := wire.EncodeReplShipment([]wire.ReplBatch{*in})
	if err != nil {
		t.Fatalf("EncodeReplShipment: %v", err)
	}
	viaJSON, err := wire.DecodeReplShipment(jsonBytes)
	if err != nil {
		t.Fatalf("DecodeReplShipment(json): %v", err)
	}
	if fmt.Sprintf("%+v", viaJSON[0].Users) != fmt.Sprintf("%+v", out.Users) {
		t.Fatalf("binary and JSON decodes disagree:\n%+v\n%+v", out.Users, viaJSON[0].Users)
	}
}

func eqU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestConnRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a, 0), NewConn(b, 0)
	defer ca.Close()
	defer cb.Close()

	go func() {
		ca.WriteFrame(TJobPull, 9, appendUvarintT(nil, 1500))
	}()
	f, err := cb.ReadFrame()
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if f.Type != TJobPull || f.Stream != 9 {
		t.Fatalf("got %+v", f)
	}
	wait, err := DecodeUint(f.Payload)
	if err != nil || wait != 1500 {
		t.Fatalf("payload: %d, %v", wait, err)
	}
}

// TestConnConcurrentWriters drives many goroutines through one Conn and
// checks every frame arrives intact — the group-commit flusher must not
// drop, duplicate, or interleave bytes.
func TestConnConcurrentWriters(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a, 0), NewConn(b, 0)
	defer ca.Close()
	defer cb.Close()

	var meter atomic.Int64
	ca.SetMeter(&meter)

	const writers, frames = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte(w)}, w+1)
			for i := 0; i < frames; i++ {
				if err := ca.WriteFrame(TRateBatch, uint64(w), payload); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}

	got := make(map[uint64]int)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < writers*frames; i++ {
			f, err := cb.ReadFrame()
			if err != nil {
				t.Errorf("ReadFrame: %v", err)
				return
			}
			w := f.Stream
			if len(f.Payload) != int(w)+1 {
				t.Errorf("stream %d: payload of %d bytes", w, len(f.Payload))
				return
			}
			for _, c := range f.Payload {
				if c != byte(w) {
					t.Errorf("stream %d: corrupt payload byte %d", w, c)
					return
				}
			}
			got[w]++
		}
	}()
	wg.Wait()
	<-done
	for w := 0; w < writers; w++ {
		if got[uint64(w)] != frames {
			t.Fatalf("stream %d: %d of %d frames", w, got[uint64(w)], frames)
		}
	}
	if meter.Load() == 0 {
		t.Fatal("byte meter never advanced")
	}
}

func TestConnWriteAfterClose(t *testing.T) {
	a, b := net.Pipe()
	ca := NewConn(a, 0)
	b.Close()
	ca.Close()
	if err := ca.WriteFrame(TJob, 1, nil); err == nil {
		t.Fatal("write after close succeeded")
	}
}

// TestReplBatchRatingsSection pins a segment's optional trailing
// section: delta and mixed segments round-trip, a state-only segment
// ends after its users, and a malformed section fails loudly instead of
// being skipped.
func TestReplBatchRatingsSection(t *testing.T) {
	users := []wire.ReplUser{{UID: 1, Liked: []uint32{10}}}
	ratings := []wire.RatingMsg{{UID: 7, Item: 9, Liked: true}, {UID: 8, Item: 9}}
	for name, in := range map[string]*wire.ReplBatch{
		"delta-only": {Epoch: 2, Partition: 3, Seq: 4, Users: []wire.ReplUser{}, Ratings: ratings},
		"mixed":      {Epoch: 2, Partition: 3, Seq: 5, Users: users, Ratings: ratings},
		"state-only": {Epoch: 2, Partition: 3, Seq: 6, Users: users},
	} {
		var out wire.ReplBatch
		if err := decodeReplSegment(appendReplSegment(nil, in), &out); err != nil || !reflect.DeepEqual(*in, out) {
			t.Fatalf("%s: round trip gave %+v (%v), want %+v", name, out, err, in)
		}
		viaJSON, _ := wire.EncodeReplShipment([]wire.ReplBatch{*in})
		if j, err := wire.DecodeReplShipment(viaJSON); err != nil || !reflect.DeepEqual(j[0].Ratings, out.Ratings) {
			t.Fatalf("%s: JSON and binary wires disagree on the ratings: %+v vs %+v (%v)", name, j, out, err)
		}
	}

	// A state-only segment, spelled out: header, users, nothing after.
	stateOnly := &wire.ReplBatch{Epoch: 1, Partition: 2, Seq: 3, Users: []wire.ReplUser{{UID: 7, Liked: []uint32{1}, Recs: []uint32{2, 3}}}}
	old := []byte{1, 2, 3, 0, 1, 7, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 2, 2, 0, 0, 0, 3, 0, 0, 0}
	if got := appendReplSegment(nil, stateOnly); !bytes.Equal(got, old) {
		t.Fatalf("state-only segment encodes to % x, want % x", got, old)
	}
	var out wire.ReplBatch
	if err := decodeReplSegment(old, &out); err != nil || len(out.Ratings) != 0 || len(out.Users) != 1 {
		t.Fatalf("state-only segment decoded to %+v (%v)", out, err)
	}

	delta := appendReplSegment(nil, &wire.ReplBatch{Seq: 1, Ratings: ratings})
	for name, bad := range map[string][]byte{
		"truncated rating":   delta[:len(delta)-1],
		"trailing byte":      append(append([]byte(nil), delta...), 0),
		"empty section":      append(append([]byte(nil), old...), 0),
		"count over bytes":   append(append([]byte(nil), old...), 3, 1, 2, 3),
		"count over the cap": append(append([]byte(nil), old...), 0x81, 0x20), // 4097
	} {
		var out wire.ReplBatch
		if err := decodeReplSegment(bad, &out); err == nil {
			t.Fatalf("%s: decoded to %+v, want an error", name, out)
		}
	}
	if err := decodeReplSegment(append(append([]byte(nil), old...), 0x81, 0x20), &out); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("ratings count past MaxReplRatings: want ErrTooLarge, got %v", err)
	}
}

// TestReplShipmentFraming: segments of any form ride one payload,
// length-prefixed, and come back in order; the shipment's bounds hold
// across segments on the binary plane as on the JSON one; TReplOK
// carries one ack per segment.
func TestReplShipmentFraming(t *testing.T) {
	ratings := []wire.RatingMsg{{UID: 7, Item: 9, Liked: true}, {UID: 8, Item: 9}}
	in := []wire.ReplBatch{
		{Epoch: 2, Partition: 3, Seq: 4, Users: []wire.ReplUser{}, Ratings: ratings},
		{Epoch: 2, Partition: 0, Seq: 5, Full: true, Users: []wire.ReplUser{{UID: 1, Liked: []uint32{10}}}},
		{Epoch: 2, Partition: 7, Seq: 6, Users: []wire.ReplUser{}, Ratings: ratings[:1]},
	}
	buf := AppendReplShipment(nil, in)
	out, err := DecodeReplShipment(buf)
	if err != nil || !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip gave %+v (%v), want %+v", out, err, in)
	}

	seg := func(p int, n int) wire.ReplBatch {
		return wire.ReplBatch{Partition: p, Seq: 1, Users: []wire.ReplUser{}, Ratings: make([]wire.RatingMsg, n)}
	}
	for name, bad := range map[string][]byte{
		"an empty shipment":         {0},
		"a truncated length prefix": {1, 0x80},
		"a length past the payload": append([]byte{1, 0x7f}, buf[2:]...),
		"a trailing byte":           append(append([]byte(nil), buf...), 0),
		"a partition twice":         AppendReplShipment(nil, []wire.ReplBatch{seg(3, 1), seg(3, 1)}),
	} {
		if segs, err := DecodeReplShipment(bad); err == nil {
			t.Fatalf("%s: decoded to %+v, want an error", name, segs)
		}
	}
	for name, big := range map[string][]byte{
		"segments past MaxNodePartitions": append([]byte{0x81, 0x20}, make([]byte, minReplSegment*(wire.MaxNodePartitions+1))...),
		"ratings past MaxReplRatings":     AppendReplShipment(nil, []wire.ReplBatch{seg(0, wire.MaxReplRatings/2+1), seg(1, wire.MaxReplRatings/2)}),
	} {
		if _, err := DecodeReplShipment(big); !errors.Is(err, ErrTooLarge) && !errors.Is(err, wire.ErrTooLarge) {
			t.Fatalf("%s: want a too-large error, got %v", name, err)
		}
	}

	acks := []wire.ReplAck{{Applied: 2, Seq: 4}, {Applied: 0, Seq: 5, Gap: true}, {Applied: 1, Seq: 1 << 40}}
	got, err := DecodeReplAcks(AppendReplAcks(nil, acks), len(acks))
	if err != nil || !reflect.DeepEqual(got, acks) {
		t.Fatalf("acks round trip gave %+v (%v), want %+v", got, err, acks)
	}
	if _, err := DecodeReplAcks(AppendReplAcks(nil, acks), 2); err == nil {
		t.Fatal("three acks accepted for a two-segment shipment")
	}
}

// countingConn counts the Write calls that reach the socket.
