package server

import (
	"bytes"
	"context"
	"math/rand"
	"slices"
	"testing"
	"time"

	"hyrec/internal/core"
	"hyrec/internal/wire"
	"hyrec/internal/ws"
)

// TestWireOrderHidesRealIDOrder is the server half of the privacy
// regression in internal/wire: whichever way a job leaves the engine —
// the struct form, the /online gzip payload, the format-3 body, the
// WebSocket push — every profile list in it is strictly ascending in
// pseudonym space, and over the hundreds of adjacent pairs one job
// carries the real IDs behind them ascend about half the time. When
// lists went out in real-ID order that fraction was exactly 1.
func TestWireOrderHidesRealIDOrder(t *testing.T) {
	e, ts := newSchedTestServer(t)
	rng := rand.New(rand.NewSource(3))
	const users = 40
	for u := core.UserID(1); u <= users; u++ {
		var batch []core.Rating
		for i := 0; i < 120; i++ {
			batch = append(batch, core.Rating{User: u, Item: core.ItemID(rng.Intn(2000)), Liked: rng.Intn(4) > 0})
		}
		if err := e.RateBatch(tctx, batch); err != nil {
			t.Fatal(err)
		}
	}

	check := func(path string, job *wire.Job) {
		t.Helper()
		var pairs, ascending int
		for _, m := range append([]wire.ProfileMsg{job.Profile}, job.Candidates...) {
			for _, list := range [][]uint32{m.Liked, m.Disliked} {
				for i, alias := range list {
					if i == 0 {
						continue
					}
					if alias <= list[i-1] {
						t.Fatalf("%s: profile %d: pseudonyms not strictly ascending: %v", path, m.ID, list)
					}
					a, okA := e.resolveItem(core.ItemID(list[i-1]), job.Epoch)
					b, okB := e.resolveItem(core.ItemID(alias), job.Epoch)
					if !okA || !okB {
						t.Fatalf("%s: pseudonym does not resolve under epoch %d", path, job.Epoch)
					}
					pairs++
					if a < b {
						ascending++
					}
				}
			}
		}
		if pairs < 300 {
			t.Fatalf("%s: only %d adjacent pairs in the job; fixture too small", path, pairs)
		}
		if frac := float64(ascending) / float64(pairs); frac < 0.4 || frac > 0.6 {
			t.Errorf("%s: real IDs ascend along %.0f%% of %d adjacent wire positions; the wire order leaks the real order", path, 100*frac, pairs)
		}
	}

	job, err := e.Job(tctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	check("Job", job)

	jsonBody, gz, err := e.AppendJobPayload(tctx, 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	inflated, err := wire.Decompress(gz)
	if err != nil || !bytes.Equal(inflated, jsonBody) {
		t.Fatalf("payload gzip does not inflate to its JSON body: %v", err)
	}
	if job, err = wire.DecodeJob(inflated); err != nil {
		t.Fatal(err)
	}
	check("AppendJobPayload", job)
	// A second assembly is served from the fragment cache: same order.
	if jsonBody, _, err = e.AppendJobPayload(tctx, 2, nil, nil); err != nil {
		t.Fatal(err)
	}
	if job, err = wire.DecodeJob(jsonBody); err != nil {
		t.Fatal(err)
	}
	check("AppendJobPayload (cached fragments)", job)

	if jsonBody, err = e.AppendJobJSON(tctx, 3, nil); err != nil {
		t.Fatal(err)
	}
	if job, err = wire.DecodeJob(jsonBody); err != nil {
		t.Fatal(err)
	}
	check("AppendJobJSON", job)

	ctx, cancel := context.WithTimeout(tctx, 10*time.Second)
	defer cancel()
	conn, err := ws.Dial(ctx, ts.URL+wire.WSWorkerPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.WriteMessage(ws.OpText, []byte(`{"want":1}`)); err != nil {
		t.Fatal(err)
	}
	_, frame, err := conn.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if job, err = wire.DecodeJob(frame); err != nil {
		t.Fatalf("push frame did not decode as a job: %v", err)
	}
	check("WebSocket push", job)

	// And what the widget rebuilds from it is the profile the server
	// holds, item for item, in pseudonym space.
	m := job.Profile
	p := wire.MsgToProfile(m)
	if !slices.Equal(toU32(p.Liked()), m.Liked) || !slices.Equal(toU32(p.Disliked()), m.Disliked) {
		t.Fatalf("MsgToProfile did not adopt the wire lists as sent")
	}
}

func toU32(items []core.ItemID) []uint32 {
	out := make([]uint32, len(items))
	for i, it := range items {
		out[i] = uint32(it)
	}
	return out
}
