package wire

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"
)

// TestReplBatchRatingsJSON pins the JSON form of the delta section: it
// round-trips, is absent from a state-only batch (so a pre-delta
// receiver sees the body it always saw), and is bounded like the rest.
func TestReplBatchRatingsJSON(t *testing.T) {
	in := &ReplBatch{Epoch: 1, Partition: 2, Seq: 4, Ratings: []RatingMsg{{UID: 7, Item: 9, Liked: true}, {UID: 8, Item: 9}}}
	body, err := EncodeReplBatch(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeReplBatch(body)
	if err != nil || !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip gave %+v (%v), want %+v", out, err, in)
	}

	stateOnly, _ := EncodeReplBatch(&ReplBatch{Epoch: 1, Seq: 3, Users: []ReplUser{{UID: 7, Liked: []uint32{1}}}})
	if want := `{"epoch":1,"partition":0,"seq":3,"users":[{"uid":7,"liked":[1]}]}`; string(stateOnly) != want {
		t.Fatalf("state-only batch encodes to %s, want the pre-delta body %s", stateOnly, want)
	}
	ack, _ := json.Marshal(&ReplAck{Applied: 1, Seq: 3})
	if want := `{"applied":1,"seq":3}`; string(ack) != want {
		t.Fatalf("gap-free ack encodes to %s, want the pre-delta body %s", ack, want)
	}

	big, _ := EncodeReplBatch(&ReplBatch{Ratings: make([]RatingMsg, MaxReplRatings+1)})
	if _, err := DecodeReplBatch(big); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("batch of %d ratings: want ErrTooLarge, got %v", MaxReplRatings+1, err)
	}
}
