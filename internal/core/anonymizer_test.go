package core

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestAnonymizerRoundTrip(t *testing.T) {
	a := NewAnonymizer(42)
	for _, u := range []UserID{0, 1, 1000, 1 << 31, 0xFFFFFFFF} {
		alias := a.AliasUser(u)
		got, ok := a.ResolveUser(alias, a.Epoch())
		if !ok || got != u {
			t.Fatalf("round trip failed for %v: got %v ok=%v", u, got, ok)
		}
	}
}

func TestAnonymizerItemRoundTrip(t *testing.T) {
	a := NewAnonymizer(42)
	alias := a.AliasItem(777)
	got, ok := a.ResolveItem(alias, a.Epoch())
	if !ok || got != 777 {
		t.Fatalf("item round trip: %v ok=%v", got, ok)
	}
}

func TestAnonymizerPreviousEpochStillResolvable(t *testing.T) {
	a := NewAnonymizer(1)
	epoch0 := a.Epoch()
	alias := a.AliasUser(33)
	a.Advance()
	got, ok := a.ResolveUser(alias, epoch0)
	if !ok || got != 33 {
		t.Fatalf("previous epoch unresolvable: %v ok=%v", got, ok)
	}
}

func TestAnonymizerStaleEpochRejected(t *testing.T) {
	a := NewAnonymizer(1)
	epoch0 := a.Epoch()
	alias := a.AliasUser(33)
	a.Advance()
	a.Advance()
	if _, ok := a.ResolveUser(alias, epoch0); ok {
		t.Fatal("two-epochs-old alias resolved")
	}
	if _, ok := a.ResolveUser(alias, a.Epoch()+1); ok {
		t.Fatal("future epoch resolved")
	}
}

func TestAnonymizerAdvanceChangesMapping(t *testing.T) {
	a := NewAnonymizer(7)
	before := a.AliasUser(5)
	a.Advance()
	after := a.AliasUser(5)
	if before == after {
		// Not impossible for one value, but with distinct random keys it is
		// (1/2^32)-unlikely; treat as failure to catch accidental key reuse.
		t.Fatal("alias unchanged after Advance")
	}
}

func TestAnonymizerDistinctSeedsDistinctMappings(t *testing.T) {
	a, b := NewAnonymizer(1), NewAnonymizer(2)
	same := 0
	for u := UserID(0); u < 64; u++ {
		if a.AliasUser(u) == b.AliasUser(u) {
			same++
		}
	}
	if same > 4 {
		t.Fatalf("mappings from different seeds agree on %d of 64 points", same)
	}
}

// Property: the Feistel construction is a bijection — forward∘backward is
// identity for arbitrary 32-bit inputs and keys.
func TestFeistelBijectionProperty(t *testing.T) {
	prop := func(x uint32, k0, k1, k2, k3 uint32) bool {
		keys := feistelKeys{k0, k1, k2, k3}
		return feistelBackward(feistelForward(x, keys), keys) == x &&
			feistelForward(feistelBackward(x, keys), keys) == x
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: no collisions on a dense range (injectivity spot check).
func TestFeistelNoCollisions(t *testing.T) {
	a := NewAnonymizer(99)
	seen := make(map[UserID]UserID, 1<<16)
	for u := UserID(0); u < 1<<16; u++ {
		alias := a.AliasUser(u)
		if prev, dup := seen[alias]; dup {
			t.Fatalf("collision: %v and %v both map to %v", prev, u, alias)
		}
		seen[alias] = u
	}
}

// Aliases minted on a pinned View resolve correctly even while another
// goroutine rotates epochs: the view's Epoch and mapping are one snapshot.
// (Minting on the Anonymizer directly and reading Epoch() separately is
// NOT safe under rotation — that is exactly why job assembly uses View.)
func TestAnonymizerConcurrentUse(t *testing.T) {
	a := NewAnonymizer(5)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				u := UserID(g*1000 + i)
				view := a.View()
				alias := view.AliasUser(u)
				got, ok := a.ResolveUser(alias, view.Epoch())
				// A fast rotator can push the view ≥2 epochs behind, in
				// which case resolution is (correctly) refused — but a
				// successful resolution must never be wrong.
				if ok && got != u {
					t.Errorf("wrong resolution under concurrency: %v → %v", u, got)
					return
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			a.Advance()
		}
	}()
	wg.Wait()
	<-done
}

func TestViewConsistentSnapshot(t *testing.T) {
	a := NewAnonymizer(9)
	view := a.View()
	aliasBefore := view.AliasUser(42)
	epochBefore := view.Epoch()
	a.Advance()
	// The view must be frozen: same alias, same epoch, still resolvable
	// as the previous epoch.
	if view.AliasUser(42) != aliasBefore || view.Epoch() != epochBefore {
		t.Fatal("view changed after Advance")
	}
	got, ok := a.ResolveUser(aliasBefore, epochBefore)
	if !ok || got != 42 {
		t.Fatalf("previous-epoch alias no longer resolves: got %v ok=%v", got, ok)
	}
}

func TestIdentityAliaser(t *testing.T) {
	var id IdentityAliaser
	if id.AliasUser(7) != 7 || id.AliasItem(9) != 9 || id.Epoch() != 0 {
		t.Fatal("identity aliaser is not the identity")
	}
}

func BenchmarkAliasUser(b *testing.B) {
	a := NewAnonymizer(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.AliasUser(UserID(i))
	}
}

// Every in-band item ID round-trips and its pseudonym stays in the
// band — exhaustively, for the current and the previous epoch — and the
// in-band mapping is a permutation of the band.
func TestItemAliasBandExhaustive(t *testing.T) {
	a := NewAnonymizer(3)
	a.Advance()
	prev := a.View() // becomes the previous epoch at the next Advance
	a.Advance()
	for _, c := range []struct {
		name string
		view *AliasView
	}{{"previous", prev}, {"current", a.View()}} {
		seen := make([]bool, ItemBand)
		for i := ItemID(0); i < ItemBand; i++ {
			alias := c.view.AliasItem(i)
			if alias >= ItemBand {
				t.Fatalf("%s epoch: in-band item %d got out-of-band pseudonym %d", c.name, i, alias)
			}
			if seen[alias] {
				t.Fatalf("%s epoch: pseudonym %d minted twice", c.name, alias)
			}
			seen[alias] = true
			if got, ok := a.ResolveItem(alias, c.view.Epoch()); !ok || got != i {
				t.Fatalf("%s epoch: item %d → %d resolves to %d ok=%v", c.name, i, alias, got, ok)
			}
		}
	}
}

// Out-of-band item IDs round-trip and stay out of the band, at the band
// edges, the top of the space and a seeded sample.
func TestItemAliasOutOfBand(t *testing.T) {
	a := NewAnonymizer(4)
	ids := []ItemID{ItemBand - 1, ItemBand, ItemBand + 1, 1 << 31, 0xFFFFFFFE, 0xFFFFFFFF}
	rng := rand.New(rand.NewSource(5))
	for len(ids) < 20000 {
		ids = append(ids, ItemID(ItemBand+rng.Uint32()%(0xFFFFFFFF-ItemBand+1)))
	}
	for _, i := range ids {
		alias := a.AliasItem(i)
		if (i < ItemBand) != (alias < ItemBand) {
			t.Fatalf("item %d → %d crossed the band edge", i, alias)
		}
		if got, ok := a.ResolveItem(alias, a.Epoch()); !ok || got != i {
			t.Fatalf("item %d → %d resolves to %d ok=%v", i, alias, got, ok)
		}
	}
}

// The cycle walk takes more than one step exactly for the out-of-band
// IDs whose first 32-bit step lands in the band. Every such ID is found
// by inverting one step from each in-band value, and each must still
// get an out-of-band pseudonym that resolves back to it.
func TestItemAliasCycleWalk(t *testing.T) {
	a := NewAnonymizer(6)
	keys := a.View().keys
	walked := 0
	for y := uint32(0); y < ItemBand; y++ {
		x := feistelBackward(y, keys)
		if x < ItemBand {
			continue
		}
		walked++
		alias := itemForward(x, keys)
		if alias < ItemBand || itemBackward(alias, keys) != x {
			t.Fatalf("walk from %d: pseudonym %d, back %d", x, alias, itemBackward(alias, keys))
		}
	}
	if walked == 0 {
		t.Fatal("no out-of-band ID exercised the cycle walk")
	}
}

// Two anonymisers with the same seed and rotation count mint the same
// item pseudonyms and resolve each other's — what cross-node result
// resolution relies on.
func TestItemAliasCrossNode(t *testing.T) {
	a, b := NewAnonymizer(8), NewAnonymizer(8)
	for r := 0; r < 3; r++ {
		for _, i := range []ItemID{0, 1, 777, ItemBand - 1, ItemBand, 1 << 24, 0xFFFFFFFF} {
			alias := a.AliasItem(i)
			if got := b.AliasItem(i); got != alias {
				t.Fatalf("rotation %d: item %d aliases to %d and %d", r, i, alias, got)
			}
			if got, ok := b.ResolveItem(alias, a.Epoch()); !ok || got != i {
				t.Fatalf("rotation %d: peer resolves %d to %d ok=%v", r, alias, got, ok)
			}
		}
		a.Advance()
		b.Advance()
	}
}

// Item pseudonyms age out with the epoch exactly like user pseudonyms.
func TestItemAliasStaleEpochRejected(t *testing.T) {
	a := NewAnonymizer(1)
	epoch0 := a.Epoch()
	alias := a.AliasItem(33)
	if _, ok := a.ResolveItem(alias, epoch0+1); ok {
		t.Fatal("future epoch resolved")
	}
	a.Advance()
	if got, ok := a.ResolveItem(alias, epoch0); !ok || got != 33 {
		t.Fatalf("previous epoch: %v ok=%v", got, ok)
	}
	a.Advance()
	if _, ok := a.ResolveItem(alias, epoch0); ok {
		t.Fatal("two-epochs-old item alias resolved")
	}
}

// FuzzItemAliasRoundTrip: any item ID under any keys round-trips, and
// its pseudonym is in the band exactly when the ID is.
func FuzzItemAliasRoundTrip(f *testing.F) {
	f.Add(uint32(0), uint32(1), uint32(2), uint32(3), uint32(4))
	f.Add(uint32(ItemBand-1), uint32(0), uint32(0), uint32(0), uint32(0))
	f.Add(uint32(ItemBand), uint32(0xFFFFFFFF), uint32(7), uint32(9), uint32(11))
	f.Add(uint32(0xFFFFFFFF), uint32(5), uint32(6), uint32(7), uint32(8))
	f.Fuzz(func(t *testing.T, x, k0, k1, k2, k3 uint32) {
		keys := feistelKeys{k0, k1, k2, k3}
		alias := itemForward(x, keys)
		if (x < ItemBand) != (alias < ItemBand) {
			t.Fatalf("%d → %d crossed the band edge", x, alias)
		}
		if back := itemBackward(alias, keys); back != x {
			t.Fatalf("%d → %d → %d", x, alias, back)
		}
		if fwd := itemForward(itemBackward(x, keys), keys); fwd != x {
			t.Fatalf("backward then forward moved %d to %d", x, fwd)
		}
	})
}
