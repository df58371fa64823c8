// Newsfeed: a Digg-style personalized feed served over real HTTP — the
// paper's motivating scenario (a small content provider with many users).
// A HyRec server runs on a local port while simulated browser widgets
// post votes and execute personalization jobs; the example then prints
// each user's personalized front page and the server's traffic stats.
//
//	go run ./examples/newsfeed
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"

	"hyrec"
)

// story is a news item in our tiny catalogue.
type story struct {
	id    hyrec.ItemID
	topic string
	title string
}

func main() {
	catalogue := buildCatalogue()

	engine := hyrec.NewEngine(hyrec.DefaultConfig())
	srv := hyrec.NewHTTPServer(engine, 0)
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()
	fmt.Printf("hyrec server on %s\n", ts.URL)

	// 30 users in two interest communities (tech vs sports) vote on
	// stories through the web API, each running the widget loop.
	rng := rand.New(rand.NewSource(7))
	// Size the idle pool explicitly: the zero-value transport keeps only
	// 2 idle connections per host, so a busy loop against one server
	// would churn through fresh dials.
	client := &http.Client{Transport: &http.Transport{
		DisableCompression:  true,
		MaxIdleConns:        32,
		MaxIdleConnsPerHost: 32,
	}}
	widget := hyrec.NewWidget()
	lastRecs := map[hyrec.UserID][]hyrec.ItemID{}

	for round := 0; round < 6; round++ {
		for u := 0; u < 30; u++ {
			uid := hyrec.UserID(u)
			topic := "tech"
			if u%2 == 1 {
				topic = "sports"
			}
			st := pickStory(rng, catalogue, topic)

			// Vote + request a personalization job in one call.
			url := fmt.Sprintf("%s/online?uid=%d&item=%d&liked=true", ts.URL, uid, st.id)
			resp, err := client.Get(url)
			if err != nil {
				log.Fatal(err)
			}
			gz, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				log.Fatal(err)
			}

			// The "browser" computes recommendations and new neighbors.
			res, _, err := widget.ExecutePayload(gz)
			if err != nil {
				log.Fatal(err)
			}
			body, _ := json.Marshal(res)
			post, err := client.Post(ts.URL+"/neighbors", "application/json", bytes.NewReader(body))
			if err != nil {
				log.Fatal(err)
			}
			io.Copy(io.Discard, post.Body)
			post.Body.Close()

			// Resolve pseudonymised recommendations via the server.
			recResp, err := client.Get(fmt.Sprintf("%s/recommendations?uid=%d", ts.URL, uid))
			if err != nil {
				log.Fatal(err)
			}
			var recs []hyrec.ItemID
			json.NewDecoder(recResp.Body).Decode(&recs)
			recResp.Body.Close()
			lastRecs[uid] = recs
		}
	}

	// Show two users' personalized front pages.
	for _, uid := range []hyrec.UserID{0, 1} {
		topic := "tech"
		if uid%2 == 1 {
			topic = "sports"
		}
		fmt.Printf("\nfront page for user %d (%s reader):\n", uid, topic)
		inTopic := 0
		for i, item := range lastRecs[uid] {
			if i >= 5 {
				break
			}
			st := catalogue[item]
			fmt.Printf("  %d. [%s] %s\n", i+1, st.topic, st.title)
			if st.topic == topic {
				inTopic++
			}
		}
		fmt.Printf("  → %d/5 recommendations match the user's community\n", inTopic)
	}

	// Server-side economics: how little crossed the wire.
	m := engine.Meter()
	fmt.Printf("\nserver traffic: %d messages, %.1f kB of jobs (job format 3) and %.1f kB of results\n",
		m.Messages(), float64(m.JobBytes())/1024, float64(m.ResultBytes())/1024)
}

func buildCatalogue() map[hyrec.ItemID]story {
	topics := map[string][]string{
		"tech": {
			"New CPU breaks efficiency record", "Browser engines compared",
			"Open-source DB hits 1.0", "The state of WebAssembly",
			"Self-hosting your own cloud", "A tour of modern compilers",
			"Debugging distributed systems", "Faster JSON parsing tricks",
		},
		"sports": {
			"Championship final recap", "Transfer window surprises",
			"Marathon training science", "Underdogs take the cup",
			"Inside the locker room", "Analytics changes scouting",
			"Season preview: dark horses", "The greatest comeback ever",
		},
	}
	out := map[hyrec.ItemID]story{}
	id := hyrec.ItemID(1)
	for topic, titles := range topics {
		for _, title := range titles {
			out[id] = story{id: id, topic: topic, title: title}
			id++
		}
	}
	return out
}

func pickStory(rng *rand.Rand, catalogue map[hyrec.ItemID]story, topic string) story {
	for {
		id := hyrec.ItemID(1 + rng.Intn(len(catalogue)))
		if st, ok := catalogue[id]; ok && st.topic == topic {
			return st
		}
	}
}
