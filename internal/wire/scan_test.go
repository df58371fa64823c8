package wire

import (
	"math/rand"
	"slices"
	"testing"
)

// ml1ShapedJob is a job of the shape the dense-profile workload ships:
// n candidates of 120–280 ten-digit pseudonyms each, ascending.
func ml1ShapedJob(rng *rand.Rand, n int) *Job {
	mk := func(id uint32) ProfileMsg {
		items := make([]uint32, 120+rng.Intn(161))
		for i := range items {
			items[i] = 1<<30 + rng.Uint32()>>2
		}
		slices.Sort(items)
		items = slices.Compact(items)
		cut := len(items) * 4 / 5
		return ProfileMsg{ID: id, Liked: items[:cut:cut], Disliked: items[cut:]}
	}
	j := &Job{
		UID: 1<<31 + 42, Epoch: 3, K: 10, R: 10,
		Lease: 9, LeaseDeadlineMS: 1_700_000_000_000, Attempt: 1,
		Profile: mk(1<<31 + 42),
	}
	for i := 0; i < n; i++ {
		j.Candidates = append(j.Candidates, mk(1<<31+uint32(100+i)))
	}
	return j
}

// TestDecodeJobAllocsAreFlat: a job costs the same handful of
// allocations — the Job, its integer arena, its candidate slice —
// whether it carries ten candidates or a thousand.
func TestDecodeJobAllocsAreFlat(t *testing.T) {
	for _, n := range []int{10, 100, 1000} {
		data := AppendJob(nil, ml1ShapedJob(rand.New(rand.NewSource(int64(n))), n))
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := DecodeJob(data); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 8 {
			t.Errorf("DecodeJob of %d candidates (%d bytes): %.0f allocs, want ≤ 8", n, len(data), allocs)
		}
	}
}

func BenchmarkDecodeJob(b *testing.B) {
	data := AppendJob(nil, ml1ShapedJob(rand.New(rand.NewSource(1)), 85))
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeJob(data); err != nil {
			b.Fatal(err)
		}
	}
}
