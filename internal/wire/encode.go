package wire

import (
	"sort"
	"strconv"
	"sync/atomic"

	"hyrec/internal/core"
)

// AppendResult appends the JSON encoding of r to dst, byte-identical to
// encoding/json's Marshal of Result — including the omitempty behaviour
// of the lease field — so pooled-buffer result encoding on the widget and
// client side stays interoperable with any JSON decoder.
// TestResultEncoderEquivalence pins the equivalence.
func AppendResult(dst []byte, r *Result) []byte {
	dst = append(dst, `{"uid":`...)
	dst = strconv.AppendUint(dst, uint64(r.UID), 10)
	dst = append(dst, `,"epoch":`...)
	dst = strconv.AppendUint(dst, r.Epoch, 10)
	if r.Lease != 0 {
		dst = append(dst, `,"lease":`...)
		dst = strconv.AppendUint(dst, r.Lease, 10)
	}
	dst = append(dst, `,"neighbors":`...)
	dst = appendUintArray(dst, r.Neighbors)
	dst = append(dst, `,"recs":`...)
	dst = appendUintArray(dst, r.Recommendations)
	return append(dst, '}')
}

// ResultLen is len(AppendResult(nil, r)), computed from digit widths
// without encoding: the bytes a widget's result costs on the wire.
func ResultLen(r *Result) int {
	n := len(`{"uid":,"epoch":,"neighbors":,"recs":}`) + decimalLen(uint64(r.UID)) + decimalLen(r.Epoch)
	if r.Lease != 0 {
		n += len(`,"lease":`) + decimalLen(r.Lease)
	}
	return n + uintArrayLen(r.Neighbors) + uintArrayLen(r.Recommendations)
}

func appendUintArray(dst []byte, xs []uint32) []byte {
	if xs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, x := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(dst, uint64(x), 10)
	}
	return append(dst, ']')
}

// FragmentCell memoises one user's encoded profile leg: the format-3
// bytes (AppendProfileMsg) a job concatenates in for her. The leg is
// stamped with the profile version and the anonymiser epoch it was
// built under, and served only while the stamp matches the snapshot in
// hand. Turning per-request serialization into a memcpy is the
// "serialized-profile cache" design decision benchmarked by
// BenchmarkAblationProfileCache; the server keeps one cell per user
// slot. The zero value is an empty cell. Safe for concurrent use: a miss
// encodes outside any lock and publishes a new leg with one pointer
// store.
type FragmentCell struct {
	f atomic.Pointer[fragment]
}

type fragment struct {
	epoch, version uint64
	data           []byte
}

// Fragment returns the encoded leg for profile p under anon's epoch,
// computing and caching it on miss. The returned slice must not be
// modified. Pass a core.AliasView so the leg's epoch matches the job it
// is assembled into.
func (c *FragmentCell) Fragment(p core.Profile, anon core.Aliaser) []byte {
	epoch := aliasEpoch(anon)
	if f := c.f.Load(); f != nil && f.epoch == epoch && f.version == p.Version() {
		return f.data
	}
	m := ProfileToMsg(p, anon)
	data := AppendProfileMsg(make([]byte, 0, profileMsgLen(m)), m)
	c.f.Store(&fragment{epoch: epoch, version: p.Version(), data: data})
	return data
}

func uintArrayLen(xs []uint32) int {
	if xs == nil {
		return len("null")
	}
	n := 2 + max(len(xs)-1, 0) // brackets and commas
	for _, x := range xs {
		n += decimalLen(uint64(x))
	}
	return n
}

func decimalLen(x uint64) int {
	n := 1
	for x >= 10 {
		x /= 10
		n++
	}
	return n
}

func aliasEpoch(anon core.Aliaser) uint64 {
	if anon == nil {
		return 0
	}
	return anon.Epoch()
}

// SortUint32 sorts ids ascending; helper shared by tests and the widget
// when normalising wire arrays.
func SortUint32(ids []uint32) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}
