// Package dataset provides the workload substrate for the HyRec
// reproduction: the timestamped rating-trace model, synthetic generators
// calibrated to the paper's Table 2 statistics (MovieLens ML1/ML2/ML3 and
// Digg), the per-user mean binarisation of Section 5.1, the 80/20
// time-ordered train/test split, and plain-text (de)serialisation.
//
// Real MovieLens/Digg traces are not redistributable; ARCHITECTURE.md,
// "Substitutions for the paper's testbed", documents why statistically
// shaped synthetic traces preserve the behaviours the evaluation
// measures (neighbourhood structure, session burstiness, user-arrival
// dynamics).
package dataset

import (
	"fmt"
	"time"

	"hyrec/internal/core"
)

// Event is one raw rating action: at time T (offset from trace start),
// User rated Item with Value (1–5 stars for MovieLens; 1 = "digg" for
// Digg-style votes).
type Event struct {
	T     time.Duration
	User  core.UserID
	Item  core.ItemID
	Value float64
}

// Trace is a time-ordered sequence of rating events plus its metadata.
type Trace struct {
	Name   string
	Users  int
	Items  int
	Span   time.Duration
	Events []Event // sorted by T ascending
}

// Stats summarises a trace the way Table 2 of the paper does.
type Stats struct {
	Name           string
	Users          int
	Items          int
	Ratings        int
	AvgRatings     float64 // average ratings per user
	ObservedUsers  int     // users with ≥1 event
	ObservedItems  int     // items with ≥1 event
	LikedFraction  float64 // after binarisation
	SpanDays       float64
	MaxProfileSize int
}

// ComputeStats scans a trace (after binarisation for the liked fraction).
func ComputeStats(tr *Trace) Stats {
	users := make(map[core.UserID]int, tr.Users)
	items := make(map[core.ItemID]struct{}, tr.Items)
	for _, ev := range tr.Events {
		users[ev.User]++
		items[ev.Item] = struct{}{}
	}
	s := Stats{
		Name:          tr.Name,
		Users:         tr.Users,
		Items:         tr.Items,
		Ratings:       len(tr.Events),
		ObservedUsers: len(users),
		ObservedItems: len(items),
		SpanDays:      tr.Span.Hours() / 24,
	}
	if len(users) > 0 {
		s.AvgRatings = float64(len(tr.Events)) / float64(len(users))
	}
	for _, n := range users {
		if n > s.MaxProfileSize {
			s.MaxProfileSize = n
		}
	}
	liked := 0
	for _, r := range Binarize(tr) {
		if r.Liked {
			liked++
		}
	}
	if len(tr.Events) > 0 {
		s.LikedFraction = float64(liked) / float64(len(tr.Events))
	}
	return s
}

// String renders one Table 2 row.
func (s Stats) String() string {
	return fmt.Sprintf("%-8s users=%-6d items=%-6d ratings=%-9d avg=%.0f liked=%.0f%% span=%.0fd",
		s.Name, s.ObservedUsers, s.ObservedItems, s.Ratings, s.AvgRatings, 100*s.LikedFraction, s.SpanDays)
}

// BinaryEvent is a binarised rating event, ready for replay.
type BinaryEvent struct {
	T     time.Duration
	User  core.UserID
	Item  core.ItemID
	Liked bool
}

// Rating converts the event to a core.Rating.
func (e BinaryEvent) Rating() core.Rating {
	return core.Rating{User: e.User, Item: e.Item, Liked: e.Liked}
}

// Binarize projects raw ratings onto {liked, disliked} exactly as
// Section 5.1: an item is liked iff its rating is strictly above the
// user's mean rating across all her items. Users whose ratings are all
// identical (single-rating users, or Digg votes which are always 1)
// binarise to liked=true: a vote there is an endorsement.
// Event order (and thus timestamps) is preserved. Runs in O(events).
func Binarize(tr *Trace) []BinaryEvent {
	type acc struct {
		sum      float64
		count    int
		min, max float64
	}
	accs := make(map[core.UserID]*acc, tr.Users)
	for _, ev := range tr.Events {
		a, ok := accs[ev.User]
		if !ok {
			accs[ev.User] = &acc{sum: ev.Value, count: 1, min: ev.Value, max: ev.Value}
			continue
		}
		a.sum += ev.Value
		a.count++
		if ev.Value < a.min {
			a.min = ev.Value
		}
		if ev.Value > a.max {
			a.max = ev.Value
		}
	}
	out := make([]BinaryEvent, len(tr.Events))
	for i, ev := range tr.Events {
		a := accs[ev.User]
		liked := ev.Value > a.sum/float64(a.count)
		if a.min == a.max {
			liked = true
		}
		out[i] = BinaryEvent{T: ev.T, User: ev.User, Item: ev.Item, Liked: liked}
	}
	return out
}

// Split divides binarised events into a training prefix containing
// `trainFrac` of the events (by count, which matches the paper's
// "first 80% of the ratings" because events are time-ordered) and the
// remaining test suffix.
func Split(events []BinaryEvent, trainFrac float64) (train, test []BinaryEvent) {
	if trainFrac < 0 {
		trainFrac = 0
	}
	if trainFrac > 1 {
		trainFrac = 1
	}
	cut := int(float64(len(events)) * trainFrac)
	return events[:cut], events[cut:]
}
