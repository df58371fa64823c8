package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"hyrec/internal/core"
)

// GenConfig parametrises the synthetic trace generator. See substitution
// 1 of ARCHITECTURE.md, "Substitutions for the paper's testbed", for why
// these knobs exist: the generator must preserve
// (a) latent community structure (so user-based CF has signal),
// (b) Zipf item popularity, (c) heavy-tailed per-user activity, and
// (d) session-bursty timestamps with staggered user arrival.
type GenConfig struct {
	Name    string
	Users   int
	Items   int
	Ratings int
	Span    time.Duration
	// Topics is the number of latent interest communities.
	Topics int
	// TopicAffinity is the probability a user rates inside her own topics
	// (the rest is global-popularity exploration).
	TopicAffinity float64
	// ZipfS is the Zipf exponent of item popularity (>1).
	ZipfS float64
	// ActivitySkew shapes the per-user rating-count distribution
	// (Pareto-like; larger = more skew).
	ActivitySkew float64
	// SessionSize is the mean number of ratings per session burst.
	SessionSize int
	// MaxValue is the rating scale ceiling (5 for MovieLens stars,
	// 1 for Digg votes — a constant-value voting trace).
	MaxValue int
	Seed     int64
}

func (c GenConfig) validate() error {
	switch {
	case c.Users <= 1:
		return fmt.Errorf("dataset: %s: need ≥2 users", c.Name)
	case c.Items <= 1:
		return fmt.Errorf("dataset: %s: need ≥2 items", c.Name)
	case c.Ratings < c.Users:
		return fmt.Errorf("dataset: %s: need ≥1 rating per user", c.Name)
	case c.Ratings > c.Users*c.Items:
		// A user rates an item at most once, so the (user, item) grid
		// bounds the rating count; asking for more cannot be satisfied.
		return fmt.Errorf("dataset: %s: %d ratings exceed the %d×%d user-item capacity",
			c.Name, c.Ratings, c.Users, c.Items)
	case c.Span <= 0:
		return fmt.Errorf("dataset: %s: need positive span", c.Name)
	case c.Topics <= 0:
		return fmt.Errorf("dataset: %s: need ≥1 topic", c.Name)
	}
	return nil
}

// ML1Config matches Table 2's ML1 row: 943 users, 1700 items, 100k ratings
// over the 7-month collection window.
func ML1Config() GenConfig {
	return GenConfig{
		Name: "ML1", Users: 943, Items: 1700, Ratings: 100_000,
		Span: 7 * 30 * 24 * time.Hour, Topics: 18, TopicAffinity: 0.8,
		ZipfS: 1.07, ActivitySkew: 1.3, SessionSize: 12, MaxValue: 5, Seed: 101,
	}
}

// ML2Config matches Table 2's ML2 row: 6040 users, 4000 items, 1M ratings.
func ML2Config() GenConfig {
	return GenConfig{
		Name: "ML2", Users: 6040, Items: 4000, Ratings: 1_000_000,
		Span: 7 * 30 * 24 * time.Hour, Topics: 25, TopicAffinity: 0.8,
		ZipfS: 1.07, ActivitySkew: 1.3, SessionSize: 15, MaxValue: 5, Seed: 102,
	}
}

// ML3Config matches Table 2's ML3 row: 69878 users, 10000 items, 10M
// ratings.
func ML3Config() GenConfig {
	return GenConfig{
		Name: "ML3", Users: 69_878, Items: 10_000, Ratings: 10_000_000,
		Span: 7 * 30 * 24 * time.Hour, Topics: 40, TopicAffinity: 0.8,
		ZipfS: 1.07, ActivitySkew: 1.3, SessionSize: 15, MaxValue: 5, Seed: 103,
	}
}

// DiggConfig matches Table 2's Digg row: 59167 users, 7724 items, 782807
// votes over two weeks — small profiles (avg 13) and a voting (constant
// value) rating model.
func DiggConfig() GenConfig {
	return GenConfig{
		Name: "Digg", Users: 59_167, Items: 7_724, Ratings: 782_807,
		Span: 14 * 24 * time.Hour, Topics: 30, TopicAffinity: 0.7,
		ZipfS: 1.2, ActivitySkew: 1.6, SessionSize: 4, MaxValue: 1, Seed: 104,
	}
}

// Scaled returns a copy of cfg with users/items/ratings scaled by f
// (0 < f ≤ 1), for benchmark runs that must finish quickly while keeping
// the workload's shape. The name gains a "@f" suffix.
func Scaled(cfg GenConfig, f float64) GenConfig {
	if f <= 0 || f > 1 {
		panic("dataset: scale factor must be in (0,1]")
	}
	scaleBy := func(n int, factor float64) int {
		v := int(math.Round(float64(n) * factor))
		if v < 2 {
			v = 2
		}
		return v
	}
	// Users and ratings scale linearly, preserving the paper's average
	// profile size (ratings/users). Items scale by √f — the usual
	// down-sampling rule: shrinking the catalogue as fast as the
	// population would make every user rate most of the catalogue,
	// collapsing the community structure CF depends on.
	cfg.Users = scaleBy(cfg.Users, f)
	cfg.Items = scaleBy(cfg.Items, math.Sqrt(f))
	cfg.Ratings = scaleBy(cfg.Ratings, f)
	if cfg.Ratings < cfg.Users {
		cfg.Ratings = cfg.Users
	}
	// Backstop: at extreme scale factors density can still approach the
	// (user × item) capacity, where generation grinds and profiles stop
	// resembling any real workload. Cap at 60% of capacity.
	if maxRatings := cfg.Users * cfg.Items * 3 / 5; cfg.Ratings > maxRatings {
		cfg.Ratings = maxRatings
	}
	if f != 1 {
		cfg.Name = fmt.Sprintf("%s@%.3g", cfg.Name, f)
	}
	return cfg
}

// Generate synthesises a trace from cfg. The same config always produces
// the identical trace (seeded RNG throughout).
func Generate(cfg GenConfig) (*Trace, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// --- Items: topic assignment, Zipf popularity, latent quality. ---
	itemTopic := make([]int, cfg.Items)
	itemQuality := make([]float64, cfg.Items)
	for i := range itemTopic {
		itemTopic[i] = rng.Intn(cfg.Topics)
		itemQuality[i] = clamp(rng.NormFloat64()*0.9+float64(cfg.MaxValue)*0.7, 1, float64(cfg.MaxValue))
	}
	// Per-topic item index for fast in-topic sampling.
	topicItems := make([][]core.ItemID, cfg.Topics)
	for i, t := range itemTopic {
		topicItems[t] = append(topicItems[t], core.ItemID(i))
	}
	zipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Items-1))

	// --- Users: 1–3 topics each, heavy-tailed activity, arrival time. ---
	type user struct {
		topics  []int
		nEvents int
		arrival time.Duration
	}
	users := make([]user, cfg.Users)
	weights := make([]float64, cfg.Users)
	var weightSum float64
	for u := range users {
		nt := 1 + rng.Intn(3)
		ts := make([]int, 0, nt)
		for len(ts) < nt {
			t := rng.Intn(cfg.Topics)
			if !containsInt(ts, t) {
				ts = append(ts, t)
			}
		}
		users[u].topics = ts
		// Pareto-like activity weight.
		w := math.Pow(1-rng.Float64(), -1/cfg.ActivitySkew)
		if w > 1000 {
			w = 1000
		}
		weights[u] = w
		weightSum += w
		// Staggered arrivals spread across the collection window: new
		// users keep joining throughout, as in the real MovieLens/Digg
		// collection periods (drives the cold-start dynamics of §5.3:
		// frozen offline KNN cannot serve users who arrive and rate
		// between two back-end runs).
		users[u].arrival = time.Duration(rng.Float64() * float64(cfg.Span) * 0.9)
	}
	// Apportion total ratings by weight, ≥1 each.
	assigned := 0
	for u := range users {
		n := int(float64(cfg.Ratings) * weights[u] / weightSum)
		if n < 1 {
			n = 1
		}
		if n > cfg.Items {
			n = cfg.Items
		}
		users[u].nEvents = n
		assigned += n
	}
	// Distribute the remainder randomly; validate() guarantees capacity,
	// but random placement grinds near saturation, so fall back to a
	// deterministic sweep after too many rejected draws.
	misses := 0
	for assigned < cfg.Ratings {
		u := rng.Intn(cfg.Users)
		if users[u].nEvents < cfg.Items {
			users[u].nEvents++
			assigned++
			continue
		}
		misses++
		if misses > 4*cfg.Users {
			for v := range users {
				for assigned < cfg.Ratings && users[v].nEvents < cfg.Items {
					users[v].nEvents++
					assigned++
				}
			}
			break
		}
	}

	// --- Events: sessions of bursty ratings; topic-biased item choice. ---
	sessionGap := 2 * time.Minute
	events := make([]Event, 0, assigned)
	for u := range users {
		seen := make(map[core.ItemID]struct{}, users[u].nEvents)
		remaining := users[u].nEvents
		// Session start times spread over [arrival, span].
		window := cfg.Span - users[u].arrival
		if window <= 0 {
			window = time.Hour
		}
		for remaining > 0 {
			burst := 1 + rng.Intn(2*cfg.SessionSize)
			if burst > remaining {
				burst = remaining
			}
			start := users[u].arrival + time.Duration(rng.Float64()*float64(window))
			for b := 0; b < burst; b++ {
				item, ok := pickItem(rng, cfg, users[u].topics, topicItems, zipf, seen)
				if !ok {
					break
				}
				seen[item] = struct{}{}
				affinity := 0.0
				if containsInt(users[u].topics, itemTopic[item]) {
					affinity = 1.2
				}
				value := 1.0
				if cfg.MaxValue > 1 {
					value = clamp(itemQuality[item]+affinity+rng.NormFloat64()*0.8, 1, float64(cfg.MaxValue))
					value = math.Round(value)
				}
				events = append(events, Event{
					T:     start + time.Duration(b)*sessionGap,
					User:  core.UserID(u),
					Item:  item,
					Value: value,
				})
				remaining--
			}
		}
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].T != events[j].T {
			return events[i].T < events[j].T
		}
		if events[i].User != events[j].User {
			return events[i].User < events[j].User
		}
		return events[i].Item < events[j].Item
	})
	return &Trace{
		Name:   cfg.Name,
		Users:  cfg.Users,
		Items:  cfg.Items,
		Span:   cfg.Span,
		Events: events,
	}, nil
}

// pickItem draws an unseen item: with probability TopicAffinity a
// Zipf-ranked item inside one of the user's topics, otherwise a global
// Zipf pick. Returns false when the user has exhausted the catalogue.
func pickItem(rng *rand.Rand, cfg GenConfig, topics []int, topicItems [][]core.ItemID, zipf *rand.Zipf, seen map[core.ItemID]struct{}) (core.ItemID, bool) {
	if len(seen) >= cfg.Items {
		return 0, false
	}
	for attempt := 0; attempt < 64; attempt++ {
		var item core.ItemID
		if rng.Float64() < cfg.TopicAffinity {
			pool := topicItems[topics[rng.Intn(len(topics))]]
			if len(pool) == 0 {
				continue
			}
			// Zipf rank within the topic pool, favouring low indices.
			r := int(zipf.Uint64()) % len(pool)
			item = pool[r]
		} else {
			item = core.ItemID(zipf.Uint64())
		}
		if _, dup := seen[item]; !dup {
			return item, true
		}
	}
	// Fallback: linear scan for any unseen item.
	for i := 0; i < cfg.Items; i++ {
		if _, dup := seen[core.ItemID(i)]; !dup {
			return core.ItemID(i), true
		}
	}
	return 0, false
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
