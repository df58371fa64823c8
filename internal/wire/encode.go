package wire

import (
	"sort"
	"strconv"
	"sync/atomic"

	"hyrec/internal/core"
)

// AppendProfileMsg appends m's wire form to dst and returns the extended
// slice: a JSON object whose liked and disliked lists are gap-coded
// (JobFormat). Its lists must be strictly ascending, as ProfileToMsg
// builds them. Each list's gaps start from zero, so a fragment is
// self-contained: cached fragments splice into any job unchanged.
func AppendProfileMsg(dst []byte, m ProfileMsg) []byte {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendUint(dst, uint64(m.ID), 10)
	dst = append(dst, `,"liked":`...)
	dst = appendGapArray(dst, m.Liked)
	if len(m.Disliked) > 0 {
		dst = append(dst, `,"disliked":`...)
		dst = appendGapArray(dst, m.Disliked)
	}
	return append(dst, '}')
}

// AppendJob appends j's wire form to dst, using enc to encode each
// candidate profile (enc may serve cached fragments): AppendJobHead,
// then the profile and the candidates.
func AppendJob(dst []byte, j *Job, enc func(dst []byte, m ProfileMsg) []byte) []byte {
	if enc == nil {
		enc = AppendProfileMsg
	}
	dst = AppendJobHead(dst, j)
	dst = enc(dst, j.Profile)
	dst = append(dst, `,"candidates":`...)
	if j.Candidates == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, c := range j.Candidates {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = enc(dst, c)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// AppendJobHead appends the members a job opens with, up to and
// including the "profile" key: the format, then the scalar fields in
// Job's field order, the lease metadata omitted when zero as
// encoding/json's omitempty would. It is the single source of truth for
// this prefix: both AppendJob and the engine's cached assembly call it,
// so the two encoders cannot drift.
func AppendJobHead(dst []byte, j *Job) []byte {
	dst = append(dst, `{"format":`...)
	dst = strconv.AppendInt(dst, JobFormat, 10)
	dst = append(dst, `,"uid":`...)
	dst = strconv.AppendUint(dst, uint64(j.UID), 10)
	dst = append(dst, `,"epoch":`...)
	dst = strconv.AppendUint(dst, j.Epoch, 10)
	dst = append(dst, `,"k":`...)
	dst = strconv.AppendInt(dst, int64(j.K), 10)
	dst = append(dst, `,"r":`...)
	dst = strconv.AppendInt(dst, int64(j.R), 10)
	if j.Lease != 0 {
		dst = append(dst, `,"lease":`...)
		dst = strconv.AppendUint(dst, j.Lease, 10)
	}
	if j.LeaseDeadlineMS != 0 {
		dst = append(dst, `,"deadline_ms":`...)
		dst = strconv.AppendInt(dst, j.LeaseDeadlineMS, 10)
	}
	if j.Attempt != 0 {
		dst = append(dst, `,"attempt":`...)
		dst = strconv.AppendInt(dst, int64(j.Attempt), 10)
	}
	return append(dst, `,"profile":`...)
}

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

// appendGapArray appends xs gap-coded: its first element, then each
// element minus the one before it (uint32 arithmetic, so a list that is
// not ascending still encodes to exactly gapArrayLen bytes — and fails
// ExpandGaps on the way back).
func appendGapArray(dst []byte, xs []uint32) []byte {
	if xs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	var prev uint32
	for i, x := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(dst, uint64(x-prev), 10)
		prev = x
	}
	return append(dst, ']')
}

// FragmentCell memoises one user's encoded profile fragment: the JSON
// bytes a job splices in for her and, built on first demand, their
// deflate form for spliced gzip assembly (gzipsplice.go). The fragment
// is stamped with the profile version, the anonymiser epoch and the
// deflate level it was built under, and served only while the stamp
// matches the snapshot in hand. Turning per-request serialization into a
// memcpy is the "serialized-profile cache" design decision benchmarked
// by BenchmarkAblationProfileCache; the server keeps one cell per user
// slot. The zero value is an empty cell. Safe for concurrent use: a miss
// encodes outside any lock and publishes a new fragment with one
// pointer store.
type FragmentCell struct {
	f atomic.Pointer[fragment]
}

type fragment struct {
	epoch, version uint64
	data           []byte
	// gz is data's deflate form (self-contained, sync-flushed fragment;
	// see gzipsplice.go), nil until a FragmentGz call builds it; gzLevel
	// records the level it was compressed at.
	gz      []byte
	gzLevel GzipLevel
}

// get returns the cell's fragment when its stamp matches p under epoch.
func (c *FragmentCell) get(p core.Profile, epoch uint64) *fragment {
	if f := c.f.Load(); f != nil && f.epoch == epoch && f.version == p.Version() {
		return f
	}
	return nil
}

// Fragment returns the JSON fragment for profile p under anon's epoch,
// computing and caching it on miss. The returned slice must not be
// modified. Pass a core.AliasView so the fragment's epoch matches the
// job it is spliced into.
func (c *FragmentCell) Fragment(p core.Profile, anon core.Aliaser) []byte {
	epoch := aliasEpoch(anon)
	if f := c.get(p, epoch); f != nil {
		return f.data
	}
	m := ProfileToMsg(p, anon)
	data := AppendProfileMsg(make([]byte, 0, profileMsgLen(m)), m)
	c.f.Store(&fragment{epoch: epoch, version: p.Version(), data: data})
	return data
}

// profileMsgLen is the exact length of AppendProfileMsg's encoding of m,
// so a cached fragment holds no slack: with gaps from one to ten digits
// wide, no per-item guess fits them all.
func profileMsgLen(m ProfileMsg) int {
	n := len(`{"id":,"liked":}`) + decimalLen(uint64(m.ID)) + gapArrayLen(m.Liked)
	if len(m.Disliked) > 0 {
		n += len(`,"disliked":`) + gapArrayLen(m.Disliked)
	}
	return n
}

func gapArrayLen(xs []uint32) int {
	if xs == nil {
		return len("null")
	}
	n := 2 + max(len(xs)-1, 0) // brackets and commas
	var prev uint32
	for _, x := range xs {
		n += decimalLen(uint64(x - prev))
		prev = x
	}
	return n
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

// FragmentGz returns both the JSON fragment for profile p and its cached
// deflate form at the given level. Semantics match Fragment; the deflate
// leg is built on first use and memoised alongside the JSON. Both
// returned slices must not be modified.
//
// The deflate leg is compressed into a pooled work buffer first and
// then copied into an allocation of exactly its size (together with the
// JSON on a miss), so a cell holds what it serves and nothing more.
func (c *FragmentCell) FragmentGz(p core.Profile, anon core.Aliaser, level GzipLevel) (data, gz []byte, err error) {
	epoch := aliasEpoch(anon)
	f := c.get(p, epoch)
	if f != nil && f.gz != nil && f.gzLevel == level {
		return f.data, f.gz, nil
	}
	sb := GetBuf()
	defer PutBuf(sb)
	work := *sb
	if f != nil {
		data = f.data
	} else {
		work = AppendProfileMsg(work, ProfileToMsg(p, anon))
		data = work
	}
	work, err = AppendDeflateFragment(work, data, level)
	*sb = work
	if err != nil {
		return nil, nil, err
	}
	if f != nil {
		gz = append(make([]byte, 0, len(work)), work...)
	} else {
		// One allocation for both legs: the JSON, then its deflate form.
		buf := append(make([]byte, 0, len(work)), work...)
		data, gz = buf[:len(data):len(data)], buf[len(data):]
	}
	c.f.Store(&fragment{epoch: epoch, version: p.Version(), data: data, gz: gz, gzLevel: level})
	return data, gz, nil
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
