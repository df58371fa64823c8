package server_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"time"

	"hyrec/internal/cluster"
	"hyrec/internal/core"
	"hyrec/internal/server"
	"hyrec/internal/widget"
	"hyrec/internal/wire"
)

// The payload-stream golden test pins every byte the job path ships. A
// seeded, single-goroutine driver runs the Figure-1 loop (rate, assemble,
// widget, fold in) through each job-fetch entry point and two anonymiser
// rotations, and hashes every job body it is handed. Any change
// to which candidates a job carries, their order, their profile bytes or
// their pseudonyms moves a raw digest.
//
// A second, de-aliased digest per stream pins what the jobs mean, so a
// change to the pseudonyms alone can be told from a change to the jobs:
// every job with its user, candidates and ratings resolved to real IDs
// (rating lists sorted by real ID), every error, every Neighbors answer,
// and the number of recommendations each fold-in returns. The
// recommendations themselves are left out: the widget breaks score ties
// on the smaller item pseudonym (core.TopItemsInto), so which real items
// win a tie legitimately depends on the mapping.
//
// The meaning digests were recorded before item pseudonyms were narrowed
// to 16 bits (ARCHITECTURE.md, "Anonymous mapping") and hold unchanged
// across it, across the gap-coded JSON job format 2 and across the
// binary job format 3 (wire.JobFormat): the mapping and the encoding
// changed, the jobs did not.
const (
	goldenEngine    = "ceb96211842252e26416c4d4533944973602da626dfcab79126be4fb5edd1e24"
	goldenScheduler = "5cbe630bfb5bf822667b8a66aba97292251fb8dc0da0368e5f09cc38b06e0a27"
	goldenCluster   = "3b2a9fbafe7ba77aee82d3666d213a5736b037450fe8a2af5cf47e2b11b850a1"

	meaningEngine    = "e1fe19a75782f1cd1d2547c1a7d9c1e4c28f923e2bfab5241207617208ffc7f9"
	meaningScheduler = "4d87587b6b2bcc09e101841159e29b78a22772361b7f311abfd7788f83a7aee2"
	meaningCluster   = "d0c369d7603547ff958fca83a96d8a4171365aa8ceebde3a81e133f7e5a9f615"
)

const (
	goldenUsers  = 240
	goldenItems  = 300
	goldenCycles = 2000
)

// payloadService is the slice of server.Service plus the payload and
// rotation capabilities the driver needs; an engine and a cluster both
// provide it.
type payloadService interface {
	RateBatch(ctx context.Context, ratings []core.Rating) error
	Rate(ctx context.Context, u core.UserID, item core.ItemID, liked bool) error
	AppendJob(ctx context.Context, u core.UserID, dst []byte) ([]byte, error)
	ApplyResult(ctx context.Context, res *wire.Result) ([]core.ItemID, error)
	Neighbors(ctx context.Context, u core.UserID) ([]core.UserID, error)
	RotateAnonymizer()
}

// streamDigest accumulates length-prefixed records into one SHA-256.
type streamDigest struct{ h hash.Hash }

func newStreamDigest() *streamDigest { return &streamDigest{h: sha256.New()} }

func (d *streamDigest) bytes(b []byte) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
	d.h.Write(n[:])
	d.h.Write(b)
}

func (d *streamDigest) str(s string) { d.bytes([]byte(s)) }

func (d *streamDigest) ids(xs []core.UserID) {
	b := make([]byte, 0, 4*len(xs))
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint32(b, uint32(x))
	}
	d.bytes(b)
}

func (d *streamDigest) items(xs []core.ItemID) {
	b := make([]byte, 0, 4*len(xs))
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint32(b, uint32(x))
	}
	d.bytes(b)
}

func (d *streamDigest) err(err error) {
	if err == nil {
		d.str("ok")
		return
	}
	d.str(err.Error())
}

func (d *streamDigest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// meaningDigest hashes the de-aliased stream. It resolves pseudonyms with
// shadow anonymisers: one per partition, seeded like the partition's own
// and advanced in lockstep with it, so they hold the same keys.
type meaningDigest struct {
	d     *streamDigest
	anons []*core.Anonymizer
	owner func(core.UserID) int // partition whose anonymiser aliases u's job
}

// engineMeaning shadows a single engine built from cfg.
func engineMeaning(cfg server.Config) *meaningDigest {
	return &meaningDigest{
		d:     newStreamDigest(),
		anons: []*core.Anonymizer{core.NewAnonymizer(cfg.Seed + 1)},
		owner: func(core.UserID) int { return 0 },
	}
}

// clusterMeaning shadows every partition of c.
func clusterMeaning(c *cluster.Cluster) *meaningDigest {
	m := &meaningDigest{d: newStreamDigest(), owner: c.Partition}
	for i := 0; i < c.NumPartitions(); i++ {
		m.anons = append(m.anons, core.NewAnonymizer(cluster.PartitionSeed(c.Config().Seed, i)+1))
	}
	return m
}

func (m *meaningDigest) rotate() {
	for _, a := range m.anons {
		a.Advance()
	}
}

// job records u's job with every identifier resolved; u is 0 when the
// job was dispatched to whichever user was due (single engine only).
func (m *meaningDigest) job(t *testing.T, u core.UserID, job *wire.Job) {
	t.Helper()
	a := m.anons[m.owner(u)]
	user := func(alias uint32) uint32 {
		id, ok := a.ResolveUser(core.UserID(alias), job.Epoch)
		if !ok {
			t.Fatalf("job pseudonym %d does not resolve in epoch %d", alias, job.Epoch)
		}
		return uint32(id)
	}
	items := func(b []byte, aliases []uint32) []byte {
		real := make([]uint32, len(aliases))
		for i, alias := range aliases {
			it, ok := a.ResolveItem(core.ItemID(alias), job.Epoch)
			if !ok {
				t.Fatalf("item pseudonym %d does not resolve in epoch %d", alias, job.Epoch)
			}
			real[i] = uint32(it)
		}
		slices.Sort(real)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(real)))
		for _, it := range real {
			b = binary.LittleEndian.AppendUint32(b, it)
		}
		return b
	}
	profile := func(b []byte, p wire.ProfileMsg) []byte {
		b = binary.LittleEndian.AppendUint32(b, user(p.ID))
		return items(items(b, p.Liked), p.Disliked)
	}
	uid := user(job.UID)
	if u != 0 && uid != uint32(u) {
		t.Fatalf("job for user %d resolves to user %d", u, uid)
	}
	b := binary.LittleEndian.AppendUint32(nil, uid)
	b = binary.LittleEndian.AppendUint64(b, job.Epoch)
	b = profile(b, job.Profile)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(job.Candidates)))
	for _, c := range job.Candidates {
		b = profile(b, c)
	}
	m.d.bytes(b)
}

// applied records a fold-in's outcome: its error and how many
// recommendations it returned.
func (m *meaningDigest) applied(recs []core.ItemID, err error) {
	m.d.err(err)
	m.d.str(strconv.Itoa(len(recs)))
}

// goldenPopulation seeds every user with 4–15 ratings over a small
// catalogue, so candidate sets see one-hop, two-hop and random picks and
// profiles both below and above the packed kernel's size gate.
func goldenPopulation() []core.Rating {
	rng := rand.New(rand.NewSource(7))
	var out []core.Rating
	for u := 1; u <= goldenUsers; u++ {
		n := 4 + rng.Intn(12)
		for j := 0; j < n; j++ {
			out = append(out, core.Rating{
				User:  core.UserID(u),
				Item:  core.ItemID(rng.Intn(goldenItems)),
				Liked: rng.Intn(4) != 0,
			})
		}
	}
	return out
}

// driveStream runs the scheduler-free loop over svc and returns its
// digest: per cycle one rating, one pooled or fresh AppendJob, a
// widget execution of the decoded job and its fold-in; every fiftieth
// result is held back and folded in after the next rotation, from the
// previous epoch.
func driveStream(t *testing.T, svc payloadService, m *meaningDigest) string {
	t.Helper()
	ctx := context.Background()
	d := newStreamDigest()
	if err := svc.RateBatch(ctx, goldenPopulation()); err != nil {
		t.Fatal(err)
	}
	w := widget.New()
	rng := rand.New(rand.NewSource(11))
	bufs := wire.GetPayloadBufs()
	defer wire.PutPayloadBufs(bufs)
	var held []*wire.Result
	for i := 0; i < goldenCycles; i++ {
		u := core.UserID(1 + rng.Intn(goldenUsers))
		if err := svc.Rate(ctx, u, core.ItemID(rng.Intn(goldenItems)), rng.Intn(3) != 0); err != nil {
			t.Fatal(err)
		}
		var dst []byte
		if i%2 == 0 {
			dst = bufs.JSON[:0]
		}
		body, err := svc.AppendJob(ctx, u, dst)
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			bufs.JSON = body
		}
		d.bytes(body)
		job, err := wire.DecodeJob(body)
		if err != nil {
			t.Fatal(err)
		}
		m.job(t, u, job)
		res, _ := w.Execute(job)
		if i%50 == 7 {
			held = append(held, res)
		} else {
			recs, err := svc.ApplyResult(ctx, res)
			d.err(err)
			d.items(recs)
			m.applied(recs, err)
		}
		if i%97 == 0 {
			nbrs, err := svc.Neighbors(ctx, u)
			d.err(err)
			d.ids(nbrs)
			m.d.err(err)
			m.d.ids(nbrs)
		}
		if i == goldenCycles/3 || i == 2*goldenCycles/3 {
			svc.RotateAnonymizer()
			m.rotate()
			for _, res := range held {
				recs, err := svc.ApplyResult(ctx, res)
				d.err(err)
				d.items(recs)
				m.applied(recs, err)
			}
			held = held[:0]
		}
	}
	return d.sum()
}

// schedDigest hashes a scheduler-stamped job body with its wall-clock
// lease deadline zeroed: the re-encoding of its decode, which is the
// body itself (DecodeJob accepts only the one encoding of a job) but
// for the deadline.
func schedDigest(t *testing.T, d *streamDigest, body []byte) *wire.Job {
	t.Helper()
	job, err := wire.DecodeJob(body)
	if err != nil {
		t.Fatal(err)
	}
	if job.Lease == 0 || job.LeaseDeadlineMS == 0 {
		t.Fatalf("scheduler job without lease metadata: %+v", job)
	}
	masked := *job
	masked.LeaseDeadlineMS = 0
	d.bytes(wire.AppendJob(nil, &masked))
	return job
}

// driveScheduled runs the loop with the scheduler on through every
// job-fetch entry point: Job, TryNextJob, AppendNextJob and AppendJob.
// At most one user is pending at a time, so dispatch order never depends
// on wall-clock staleness ties.
func driveScheduled(t *testing.T, e *server.Engine, m *meaningDigest) string {
	t.Helper()
	ctx := context.Background()
	d := newStreamDigest()
	if err := e.RateBatch(ctx, goldenPopulation()); err != nil {
		t.Fatal(err)
	}
	w := widget.New()
	apply := func(u core.UserID, job *wire.Job) {
		m.job(t, u, job)
		res, _ := w.Execute(job)
		recs, err := e.ApplyResult(ctx, res)
		if err != nil {
			t.Fatal(err)
		}
		d.items(recs)
		m.applied(recs, err)
	}
	structJob := func(job *wire.Job, err error) *wire.Job {
		t.Helper()
		if err != nil || job == nil {
			t.Fatalf("job = %v, %v", job, err)
		}
		schedDigest(t, d, wire.AppendJob(nil, job))
		return job
	}
	// Drain the seeding's staleness queue through user-driven jobs, in
	// user order.
	for u := 1; u <= goldenUsers; u++ {
		apply(core.UserID(u), structJob(e.Job(ctx, core.UserID(u))))
	}
	rng := rand.New(rand.NewSource(13))
	bufs := wire.GetPayloadBufs()
	defer wire.PutPayloadBufs(bufs)
	const cycles = goldenCycles / 2
	for i := 0; i < cycles; i++ {
		u := core.UserID(1 + rng.Intn(goldenUsers))
		rate := func() {
			if err := e.Rate(ctx, u, core.ItemID(rng.Intn(goldenItems)), rng.Intn(3) != 0); err != nil {
				t.Fatal(err)
			}
		}
		switch i % 4 {
		case 0:
			rate()
			apply(0, structJob(e.TryNextJob()))
		case 1:
			rate()
			body, lease, err := e.AppendNextJob(ctx, bufs.JSON[:0])
			if err != nil || lease == 0 {
				t.Fatalf("AppendNextJob: lease %d, %v", lease, err)
			}
			bufs.JSON = body
			apply(0, schedDigest(t, d, body))
		case 2:
			rate()
			body, err := e.AppendJob(ctx, u, bufs.JSON[:0])
			if err != nil {
				t.Fatal(err)
			}
			bufs.JSON = body
			apply(u, schedDigest(t, d, body))
		case 3:
			apply(u, structJob(e.Job(ctx, u)))
		}
		if i == cycles/3 || i == 2*cycles/3 {
			e.RotateAnonymizer()
			m.rotate()
		}
	}
	return d.sum()
}

func checkGolden(t *testing.T, name, got, want string) {
	t.Helper()
	if got != want {
		t.Errorf("%s payload stream digest = %s, want %s: the bytes a job ships changed", name, got, want)
	}
}

func checkMeaning(t *testing.T, name string, m *meaningDigest, want string) {
	t.Helper()
	if got := m.d.sum(); got != want {
		t.Errorf("%s de-aliased stream digest = %s, want %s: the jobs changed, not just their pseudonyms", name, got, want)
	}
}

// TestPayloadStreamGolden pins the job byte stream, and separately its
// de-aliased meaning, of a single engine (scheduler off and on) and of a
// 4-partition cluster with cross-partition exchange.
func TestPayloadStreamGolden(t *testing.T) {
	t.Run("engine", func(t *testing.T) {
		cfg := server.DefaultConfig()
		e := server.NewEngine(cfg)
		defer e.Close()
		m := engineMeaning(cfg)
		checkGolden(t, "engine", driveStream(t, e, m), goldenEngine)
		checkMeaning(t, "engine", m, meaningEngine)
	})
	t.Run("scheduler", func(t *testing.T) {
		cfg := server.DefaultConfig()
		cfg.LeaseTTL = time.Hour
		e := server.NewEngine(cfg)
		defer e.Close()
		m := engineMeaning(cfg)
		checkGolden(t, "scheduler", driveScheduled(t, e, m), goldenScheduler)
		checkMeaning(t, "scheduler", m, meaningScheduler)
	})
	t.Run("cluster4", func(t *testing.T) {
		c := cluster.New(server.DefaultConfig(), 4)
		defer c.Close()
		m := clusterMeaning(c)
		checkGolden(t, "cluster4", driveStream(t, c, m), goldenCluster)
		checkMeaning(t, "cluster4", m, meaningCluster)
	})
}
