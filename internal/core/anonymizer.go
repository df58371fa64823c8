package core

import (
	"math/rand"
	"sync"
)

// Anonymizer implements HyRec's anonymous mapping (Section 3.1): user and
// item identifiers leaving the server are replaced by per-epoch pseudonyms
// so that a curious client cannot tell which user a received profile
// belongs to. Pseudonyms are reshuffled periodically by calling Advance;
// the mapping for the previous epoch remains resolvable so that in-flight
// personalization jobs can still be applied when their results return.
//
// Instead of materialising a shuffle table over the whole ID space, the
// mapping is a keyed Feistel permutation: an O(1) memory bijection whose
// inverse runs the rounds backwards (ARCHITECTURE.md, "Anonymous
// mapping"). User pseudonyms are a 4-round Feistel over all 32 bits.
// Item pseudonyms keep IDs below ItemBand inside the band (a 16-bit
// Feistel), so a job's dominant payload — its candidates' item lists —
// carries at most five digits per item instead of ten; IDs at or above
// the band are cycle-walked through the 32-bit network until they land
// outside it. Both mappings are property-tested for bijectivity.
//
// Anonymizer is safe for concurrent use.
type Anonymizer struct {
	mu    sync.RWMutex
	epoch uint64
	cur   feistelKeys
	prev  feistelKeys
	rng   *rand.Rand
}

var _ Aliaser = (*Anonymizer)(nil)

const feistelRounds = 4

type feistelKeys [feistelRounds]uint32

// NewAnonymizer returns an Anonymizer seeded deterministically; epoch 0's
// keys are drawn immediately.
func NewAnonymizer(seed int64) *Anonymizer {
	a := &Anonymizer{rng: rand.New(rand.NewSource(seed))}
	a.cur = a.drawKeys()
	a.prev = a.cur
	return a
}

func (a *Anonymizer) drawKeys() feistelKeys {
	var k feistelKeys
	for i := range k {
		k[i] = a.rng.Uint32()
	}
	return k
}

// Aliaser mints pseudonyms for one epoch. The canonical implementations
// are *Anonymizer (always the live epoch; individual calls are atomic but
// a sequence of calls may straddle an Advance) and *AliasView (a pinned
// snapshot whose Epoch and aliases are mutually consistent — what job
// assembly must use; see Anonymizer.View).
type Aliaser interface {
	// Epoch identifies the mapping the aliases belong to.
	Epoch() uint64
	// AliasUser returns the pseudonym for u.
	AliasUser(u UserID) UserID
	// AliasItem returns the pseudonym for i.
	AliasItem(i ItemID) ItemID
}

// Epoch returns the current epoch number.
func (a *Anonymizer) Epoch() uint64 {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.epoch
}

// View pins the current epoch's mapping into an immutable snapshot.
// A personalization job must be assembled against a single view: reading
// Epoch and minting aliases directly on the Anonymizer can straddle a
// concurrent Advance, stamping the job with an epoch that does not match
// its pseudonyms — which would make the server resolve them to wrong (but
// plausible) identifiers when the result returns.
func (a *Anonymizer) View() *AliasView {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return &AliasView{epoch: a.epoch, keys: a.cur}
}

// AliasView is a consistent (epoch, mapping) snapshot. Immutable and safe
// for concurrent use.
type AliasView struct {
	epoch uint64
	keys  feistelKeys
}

var _ Aliaser = (*AliasView)(nil)

// Epoch implements Aliaser.
func (v *AliasView) Epoch() uint64 { return v.epoch }

// AliasUser implements Aliaser.
func (v *AliasView) AliasUser(u UserID) UserID {
	return UserID(feistelForward(uint32(u), v.keys))
}

// AliasItem implements Aliaser.
func (v *AliasView) AliasItem(i ItemID) ItemID {
	return ItemID(itemForward(uint32(i), v.keys))
}

// IdentityAliaser sends real identifiers — the mapping used when
// anonymisation is disabled (Config.DisableAnonymizer).
type IdentityAliaser struct{}

var _ Aliaser = IdentityAliaser{}

// Epoch implements Aliaser; the identity mapping never rotates.
func (IdentityAliaser) Epoch() uint64 { return 0 }

// AliasUser implements Aliaser.
func (IdentityAliaser) AliasUser(u UserID) UserID { return u }

// AliasItem implements Aliaser.
func (IdentityAliaser) AliasItem(i ItemID) ItemID { return i }

// Advance rotates to a fresh pseudonym mapping. Jobs stamped with the
// previous epoch remain translatable; anything older is rejected.
func (a *Anonymizer) Advance() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.prev = a.cur
	a.cur = a.drawKeys()
	a.epoch++
}

// AliasUser returns the pseudonym for u in the current epoch.
func (a *Anonymizer) AliasUser(u UserID) UserID {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return UserID(feistelForward(uint32(u), a.cur))
}

// AliasItem returns the pseudonym for i in the current epoch. Items share
// the epoch's keys with users but not the permutation: an ID below
// ItemBand maps inside the band (see itemForward).
func (a *Anonymizer) AliasItem(i ItemID) ItemID {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return ItemID(itemForward(uint32(i), a.cur))
}

// ResolveUser inverts a pseudonym minted in the given epoch. It returns
// false when the epoch is neither current nor the immediately preceding
// one (the job is too stale to apply safely).
func (a *Anonymizer) ResolveUser(alias UserID, epoch uint64) (UserID, bool) {
	keys, ok := a.epochKeys(epoch)
	if !ok {
		return 0, false
	}
	return UserID(feistelBackward(uint32(alias), keys)), true
}

// ResolveItem inverts an item pseudonym minted in the given epoch, with
// the same staleness rule as ResolveUser.
func (a *Anonymizer) ResolveItem(alias ItemID, epoch uint64) (ItemID, bool) {
	keys, ok := a.epochKeys(epoch)
	if !ok {
		return 0, false
	}
	return ItemID(itemBackward(uint32(alias), keys)), true
}

// epochKeys returns the keys of epoch when it is the current or the
// immediately preceding one.
func (a *Anonymizer) epochKeys(epoch uint64) (feistelKeys, bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	switch {
	case epoch == a.epoch:
		return a.cur, true
	case epoch == a.epoch-1 && a.epoch != 0:
		return a.prev, true
	default:
		return feistelKeys{}, false
	}
}

// feistelForward applies the 4-round balanced Feistel network to x.
// Splitting 32 bits into two 16-bit halves with any round function yields
// a permutation of the full 32-bit space.
func feistelForward(x uint32, keys feistelKeys) uint32 {
	l, r := uint16(x>>16), uint16(x)
	for i := 0; i < feistelRounds; i++ {
		l, r = r, l^roundF(r, keys[i])
	}
	return uint32(l)<<16 | uint32(r)
}

// feistelBackward inverts feistelForward.
func feistelBackward(x uint32, keys feistelKeys) uint32 {
	l, r := uint16(x>>16), uint16(x)
	for i := feistelRounds - 1; i >= 0; i-- {
		l, r = r^roundF(l, keys[i]), l
	}
	return uint32(l)<<16 | uint32(r)
}

// ItemBand is the item-ID range whose pseudonyms stay inside it: an item
// ID below 2^16 gets a pseudonym below 2^16, at most five digits on the
// wire. It covers every catalogue the paper evaluates (Table 2: ML3 has
// 10k items, Digg 7.7k) with room to spare. It is a fixed constant, not
// a knob sized from the data: the mapping must not depend on what a node
// has seen, or two nodes with the same seed and rotation count would
// resolve one alias to different items. Only catalogues with IDs of
// 65 536 and above keep full-width pseudonyms, for those IDs alone.
const ItemBand = 1 << 16

// itemRounds is the in-band network's round count: with 8-bit halves a
// round mixes less than with 16-bit ones, so it runs twice as many.
const itemRounds = 8

// itemForward is the item mapping: a bijection of the 32-bit space that
// maps [0, ItemBand) onto itself with a 16-bit Feistel and [ItemBand,
// 2^32) onto itself by cycle-walking the 32-bit network — re-applying
// it until the value leaves the band, which takes one step except with
// probability 2^-16.
func itemForward(x uint32, keys feistelKeys) uint32 {
	if x < ItemBand {
		return uint32(bandForward(uint16(x), keys))
	}
	for {
		x = feistelForward(x, keys)
		if x >= ItemBand {
			return x
		}
	}
}

// itemBackward inverts itemForward.
func itemBackward(x uint32, keys feistelKeys) uint32 {
	if x < ItemBand {
		return uint32(bandBackward(uint16(x), keys))
	}
	for {
		x = feistelBackward(x, keys)
		if x >= ItemBand {
			return x
		}
	}
}

// bandForward is the balanced Feistel over two 8-bit halves used inside
// the band. Rounds i and i+4 share the epoch key keys[i%4], offset by a
// round constant so no two rounds apply the same function.
func bandForward(x uint16, keys feistelKeys) uint16 {
	l, r := uint8(x>>8), uint8(x)
	for i := 0; i < itemRounds; i++ {
		l, r = r, l^uint8(roundF(uint16(r), bandKey(keys, i)))
	}
	return uint16(l)<<8 | uint16(r)
}

// bandBackward inverts bandForward.
func bandBackward(x uint16, keys feistelKeys) uint16 {
	l, r := uint8(x>>8), uint8(x)
	for i := itemRounds - 1; i >= 0; i-- {
		l, r = r^uint8(roundF(uint16(l), bandKey(keys, i))), l
	}
	return uint16(l)<<8 | uint16(r)
}

func bandKey(keys feistelKeys, round int) uint32 {
	return keys[round%feistelRounds] + uint32(round)*0x9E3779B9
}

// roundF is a cheap nonlinear round function (xorshift-multiply mix).
func roundF(half uint16, key uint32) uint16 {
	v := uint32(half)*0x9E3779B1 ^ key
	v ^= v >> 15
	v *= 0x85EBCA77
	v ^= v >> 13
	return uint16(v)
}
