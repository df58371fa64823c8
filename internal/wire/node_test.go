package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestReplBatchRatingsJSON pins the JSON form of the delta section: it
// round-trips, is absent from a state-only segment, and is bounded like
// the rest.
func TestReplBatchRatingsJSON(t *testing.T) {
	in := []ReplBatch{{Epoch: 1, Partition: 2, Seq: 4, Ratings: []RatingMsg{{UID: 7, Item: 9, Liked: true}, {UID: 8, Item: 9}}}}
	body, err := EncodeReplShipment(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeReplShipment(body)
	if err != nil || !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip gave %+v (%v), want %+v", out, err, in)
	}

	stateOnly, _ := EncodeReplBatch(&ReplBatch{Epoch: 1, Seq: 3, Users: []ReplUser{{UID: 7, Liked: []uint32{1}}}})
	if want := `{"epoch":1,"partition":0,"seq":3,"users":[{"uid":7,"liked":[1]}]}`; string(stateOnly) != want {
		t.Fatalf("state-only segment encodes to %s, want %s", stateOnly, want)
	}
	ack, _ := json.Marshal(&ReplAck{Applied: 1, Seq: 3})
	if want := `{"applied":1,"seq":3}`; string(ack) != want {
		t.Fatalf("gap-free ack encodes to %s, want %s", ack, want)
	}

	big, _ := EncodeReplShipment([]ReplBatch{{Ratings: make([]RatingMsg, MaxReplRatings+1)}})
	if _, err := DecodeReplShipment(big); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("segment of %d ratings: want ErrTooLarge, got %v", MaxReplRatings+1, err)
	}
}

// TestReplShipmentBounds: a shipment's limits hold across its segments,
// and a body that is not a shipment — a lone segment object included —
// is refused, never read as an empty shipment.
func TestReplShipmentBounds(t *testing.T) {
	half := make([]RatingMsg, MaxReplRatings/2+1)
	many := make([]ReplBatch, MaxNodePartitions+1)
	for i := range many {
		many[i].Partition = i % MaxNodePartitions
	}
	enc := func(segs []ReplBatch) string { b, _ := EncodeReplShipment(segs); return string(b) }
	for _, tc := range []struct {
		name, body string
		tooLarge   bool
	}{
		{"a lone segment", `{"epoch":1,"partition":0,"seq":7,"ratings":[{"uid":1,"item":2}]}`, false},
		{"an empty shipment", `[]`, false},
		{"null", `null`, false},
		{"a partition twice", enc([]ReplBatch{{Partition: 3, Seq: 1}, {Partition: 3, Seq: 2}}), false},
		{"a partition past the cap", fmt.Sprintf(`[{"partition":%d}]`, MaxNodePartitions), false},
		{"more segments than partitions", enc(many), true},
		{"ratings past the cap across segments", enc([]ReplBatch{{Partition: 0, Ratings: half}, {Partition: 1, Ratings: half}}), true},
		{"users past the cap across segments", enc([]ReplBatch{{Partition: 0, Users: make([]ReplUser, MaxReplUsers/2+1)}, {Partition: 1, Users: make([]ReplUser, MaxReplUsers/2+1)}}), true},
		{"a body past the cap", "[" + strings.Repeat(" ", MaxReplBodyBytes) + "]", true},
	} {
		segs, err := DecodeReplShipment([]byte(tc.body))
		if err == nil {
			t.Fatalf("%s: decoded to %d segments, want an error", tc.name, len(segs))
		}
		if errors.Is(err, ErrTooLarge) != tc.tooLarge {
			t.Fatalf("%s: %v, want ErrTooLarge=%v", tc.name, err, tc.tooLarge)
		}
	}
	if _, err := DecodeReplShipment([]byte(enc([]ReplBatch{{Partition: 0, Ratings: half}, {Partition: 1, Ratings: half[:1]}}))); err != nil {
		t.Fatalf("two segments within the caps: %v", err)
	}
}
