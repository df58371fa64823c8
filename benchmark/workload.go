package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"

	"hyrec/internal/core"
	"hyrec/internal/dataset"
)

// The four workloads. Every input is a pure function of (workload,
// seed, client count): the population is dataset.Generate's fixed
// paper-shaped trace, partitioned across the client goroutines by user
// hash so one user's operations stay in order on one goroutine; the seed
// decides the traffic — where in the trace each goroutine starts, and
// the order users are visited in.
//
// The seed deliberately does not reseed the population. Both traces are
// heavy-tailed (a few users rate most of the catalogue), and with 943
// users a reseeded ML1 moved payload bytes per op by +-25 % and median
// latency by +-20 %: the benchmark would have measured the draw, not the
// build, and no regress bound under 0.25 could have held.
//
// Each stream is endless by construction (the trace replayed cyclically,
// each pass flipping the liked bit), so the measured window can be a
// time box without running out of input, and profile sizes stay at trace
// size however far a fast build gets.

type workloadKind int

const (
	kindCycle   workloadKind = iota // Rate -> Job -> widget -> ApplyResult per held-out rating
	kindIngest                      // RateBatch of ingestBatch ratings over the framed plane
	kindRefresh                     // RateBatch staling refreshGroup users, then refreshGroup pushed jobs over a worker socket
)

const (
	knnK         = 10  // neighbourhood size, the paper's default
	recR         = 10  // recommendations per job
	ingestBatch  = 128 // ratings per ingest op
	refreshGroup = 8   // users staled, then refreshed, per refresh round
	seedBatch    = 1024
	trainFrac    = 0.8
)

type workload struct {
	name    string
	kind    workloadKind
	twoNode bool // two hyrec-node children instead of one hyrec-server
	// warmRounds is how many full personalization rounds (every user:
	// Job -> widget -> ApplyResult) follow seeding, so the KNN graph and
	// with it the candidate-set size are steady when the window opens.
	warmRounds int
	dataset    dataset.GenConfig
	opUnit     string
}

var (
	ml1  = dataset.ML1Config()                       // 943 users, ~106 ratings each
	digg = dataset.Scaled(dataset.DiggConfig(), 0.2) // ~11.8k users, ~13 votes each: exceeds the 4096-user rec LRU
)

var workloads = []workload{
	{name: "cycle-http-ml1", kind: kindCycle, warmRounds: 2, dataset: ml1, opUnit: "held-out rating: Rate, Job, widget, ApplyResult"},
	{name: "ingest-framed-digg", kind: kindIngest, dataset: digg, opUnit: "RateBatch of 128 ratings"},
	{name: "refresh-ws-digg", kind: kindRefresh, warmRounds: 1, dataset: digg, opUnit: "one pushed refresh, credit sent to result written"},
	{name: "ingest-2node-digg", kind: kindIngest, twoNode: true, dataset: digg, opUnit: "RateBatch of 128 ratings"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// inputs is everything the generator sends, prepared before any clock
// starts.
type inputs struct {
	users []core.UserID
	// seedRatings is loaded through RateBatch during set-up: the training
	// split for kindCycle, the whole trace for kindRefresh, nothing for
	// kindIngest (whose set-up is pass 0 of the measured stream itself).
	seedRatings []core.Rating
	// parts[c] is client goroutine c's share of the stream.
	parts []part
	// traceItems[u] is how many items Job(u).Profile must hold once the
	// whole trace was sent: a trace rates each (user, item) pair once.
	traceItems map[core.UserID]int
	// streamHash identifies the op stream: two workloads that print the
	// same hash send byte-for-byte the same operations.
	streamHash uint64
}

// part is one client goroutine's endless stream.
type part struct {
	users []core.UserID // users hashed to this goroutine (refresh: in visit order)
	// events is one pass of the stream: held-out ratings (cycle) or all
	// ratings (ingest) of this goroutine's users, in trace order; the
	// stream starts at event offset.
	events []dataset.BinaryEvent
	offset int
	// items[u] lists u's trace ratings, for the refresh stream's toggles.
	items map[core.UserID][]dataset.BinaryEvent
}

// partOf assigns a user to one of n client goroutines.
func partOf(u core.UserID, n int) int {
	return int((uint32(u) * 2654435761) >> 16 % uint32(n))
}

// rating returns rating g of p's endless stream: the trace from offset
// on, wrapping, pass g div len; odd passes flip the opinion.
func (p *part) rating(g int) core.Rating {
	ev := p.events[(p.offset+g)%len(p.events)]
	return core.Rating{User: ev.User, Item: ev.Item, Liked: ev.Liked != (g/len(p.events)%2 == 1)}
}

// batch fills dst with ingest op i: ratings [i*ingestBatch, (i+1)*ingestBatch).
func (p *part) batch(i int, dst []core.Rating) []core.Rating {
	dst = dst[:0]
	for g := i * ingestBatch; g < (i+1)*ingestBatch; g++ {
		dst = append(dst, p.rating(g))
	}
	return dst
}

// setupOps is how many ingest ops cover pass 0, after which every
// profile is at its trace size.
func (p *part) setupOps() int {
	return (len(p.events) + ingestBatch - 1) / ingestBatch
}

// toggle returns the rating that stales user slot s of the refresh
// stream: users round-robin, each visit flipping the next of the user's
// own trace items, so profile sizes never change.
func (p *part) toggle(s int) core.Rating {
	u := p.users[s%len(p.users)]
	visit := s / len(p.users)
	items := p.items[u]
	ev := items[visit%len(items)]
	return core.Rating{User: u, Item: ev.Item, Liked: ev.Liked != (visit/len(items)%2 == 0)}
}

// buildInputs generates w's dataset for seed and partitions its stream
// over clients goroutines.
func buildInputs(w workload, seed int64, clients int) (*inputs, error) {
	tr, err := dataset.Generate(w.dataset)
	if err != nil {
		return nil, fmt.Errorf("generate dataset: %w", err)
	}
	events := dataset.Binarize(tr)
	in := &inputs{parts: make([]part, clients), traceItems: make(map[core.UserID]int, tr.Users)}

	for _, ev := range events {
		in.traceItems[ev.User]++
		if in.traceItems[ev.User] == 1 {
			in.users = append(in.users, ev.User)
			p := &in.parts[partOf(ev.User, clients)]
			p.users = append(p.users, ev.User)
		}
	}

	rng := rand.New(rand.NewSource(seed))
	stream := events
	switch w.kind {
	case kindCycle:
		var train []dataset.BinaryEvent
		train, stream = dataset.Split(events, trainFrac)
		in.seedRatings = toRatings(train)
	case kindRefresh:
		in.seedRatings = toRatings(events)
		// Visit order: a seeded shuffle, so consecutive refreshes do not
		// walk the trace's arrival order.
		for i := range in.parts {
			p := &in.parts[i]
			rng.Shuffle(len(p.users), func(a, b int) { p.users[a], p.users[b] = p.users[b], p.users[a] })
			p.items = make(map[core.UserID][]dataset.BinaryEvent, len(p.users))
		}
	}
	for _, ev := range stream {
		p := &in.parts[partOf(ev.User, clients)]
		if w.kind == kindRefresh {
			p.items[ev.User] = append(p.items[ev.User], ev)
		} else {
			p.events = append(p.events, ev)
		}
	}
	for i := range in.parts {
		p := &in.parts[i]
		if len(p.users) == 0 || (w.kind != kindRefresh && len(p.events) == 0) {
			return nil, fmt.Errorf("client %d of %d got an empty stream; lower the client count", i, clients)
		}
		if w.kind != kindRefresh {
			p.offset = rng.Intn(len(p.events))
		}
	}
	in.streamHash = hashStream(w, in)
	return in, nil
}

func toRatings(evs []dataset.BinaryEvent) []core.Rating {
	out := make([]core.Rating, len(evs))
	for i, ev := range evs {
		out[i] = ev.Rating()
	}
	return out
}

// hashStream digests the first two passes of every goroutine's stream
// (two, so the flip rule is covered).
func hashStream(w workload, in *inputs) uint64 {
	h := fnv.New64a()
	var buf [13]byte
	put := func(c int, r core.Rating) {
		binary.LittleEndian.PutUint32(buf[0:], uint32(c))
		binary.LittleEndian.PutUint32(buf[4:], uint32(r.User))
		binary.LittleEndian.PutUint32(buf[8:], uint32(r.Item))
		buf[12] = 0
		if r.Liked {
			buf[12] = 1
		}
		h.Write(buf[:])
	}
	for c := range in.parts {
		p := &in.parts[c]
		n := 2 * len(p.events)
		if w.kind == kindRefresh {
			n = 2 * len(p.users)
		}
		for g := 0; g < n; g++ {
			if w.kind == kindRefresh {
				put(c, p.toggle(g))
			} else {
				put(c, p.rating(g))
			}
		}
	}
	return h.Sum64()
}
