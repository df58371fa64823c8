package wire

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"strconv"
)

// Job format 3: the one encoding of a personalization job, on every
// plane (/v1 HTTP, the worker WebSocket, the framed plane). Every
// integer is an unsigned LEB128 varint (encoding/binary's uvarint), in
// its shortest form:
//
//	job     = 0x03 uid epoch k r lease deadline_ms attempt profile count *profile
//	profile = id list(liked) list(disliked)
//	list    = count [first *gap]
//
// The signed head fields (k, r, deadline_ms, attempt) travel as the
// uvarint of their two's-complement bits, so every value round-trips;
// the lease fields are zero, one byte each, on a job without a lease. A
// list ships its count, then its first pseudonym, then each later one
// minus the one before it. A profile's encoding starts from nothing, so
// cached profile legs concatenate into any job unchanged, and the
// candidate count goes before the candidates, so a job is a head, the
// own profile's leg, one uvarint and the candidates' legs.

// AppendProfileMsg appends m's format-3 encoding to dst: its id, then
// its liked and disliked lists. The lists must be strictly ascending,
// as ProfileToMsg builds them; the gaps are taken in uint32 arithmetic,
// so a list that is not still encodes to exactly profileMsgLen bytes —
// and fails DecodeJob with ErrBadGap on the way back.
func AppendProfileMsg(dst []byte, m ProfileMsg) []byte {
	dst = binary.AppendUvarint(dst, uint64(m.ID))
	dst = appendList(dst, m.Liked)
	return appendList(dst, m.Disliked)
}

func appendList(dst []byte, xs []uint32) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(xs)))
	var prev uint32
	for _, x := range xs {
		dst = binary.AppendUvarint(dst, uint64(x-prev))
		prev = x
	}
	return dst
}

// profileMsgLen is the exact length of AppendProfileMsg's encoding of m,
// so a cached leg holds no slack.
func profileMsgLen(m ProfileMsg) int {
	return uvarintLen(uint64(m.ID)) + listLen(m.Liked) + listLen(m.Disliked)
}

func listLen(xs []uint32) int {
	n := uvarintLen(uint64(len(xs)))
	var prev uint32
	for _, x := range xs {
		n += uvarintLen(uint64(x - prev))
		prev = x
	}
	return n
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// AppendJob appends j's format-3 encoding to dst: its head, the
// profile, the candidate count and the candidates.
func AppendJob(dst []byte, j *Job) []byte {
	dst = AppendJobHead(dst, j)
	dst = AppendProfileMsg(dst, j.Profile)
	dst = binary.AppendUvarint(dst, uint64(len(j.Candidates)))
	for _, c := range j.Candidates {
		dst = AppendProfileMsg(dst, c)
	}
	return dst
}

// AppendJobHead appends what a job opens with, up to its profile: the
// format byte and the scalar fields in Job's field order. It is the
// single source of truth for this prefix: AppendJob and the engine's
// assembler, which follows it with cached profile legs, both call it.
func AppendJobHead(dst []byte, j *Job) []byte {
	dst = append(dst, JobFormat)
	for _, x := range [...]uint64{uint64(j.UID), j.Epoch, uint64(j.K), uint64(j.R),
		j.Lease, uint64(j.LeaseDeadlineMS), uint64(j.Attempt)} {
		dst = binary.AppendUvarint(dst, x)
	}
	return dst
}

// EncodeJob serializes a job in its wire form, AppendJob(nil, j). The
// error is always nil; it is kept for callers written against the
// encoding/json signature.
func EncodeJob(j *Job) ([]byte, error) { return AppendJob(nil, j), nil }

// DecodeJob parses a format-3 job. Every list it returns is strictly
// ascending, and an empty list or candidate set decodes nil. Malformed
// input fails with an error wrapping a typed cause: ErrJobFormat for a
// body that does not open with the format byte (a format-2 JSON job
// among them), ErrBadVarint for a varint that is not in shortest form
// or does not fit its field, ErrBadGap for a zero gap after a list's
// first element or a running sum past 2^32-1, ErrTruncated for a body
// that ends early — or declares more elements than it has room for —
// and ErrTrailingBytes for anything after the last candidate.
//
// The job owns its memory: every list is a capacity-capped window of one
// arena, and nothing aliases data, so the caller may recycle it as soon
// as DecodeJob returns. Every list element is a varint, so the body's
// varint-final bytes (those below 0x80) bound the elements: the arena
// holds that many integers, sized from the body and never from a count
// it claims. A list count is checked against the arena's unused tail,
// and the candidate count against the bytes left, before anything is
// carved or allocated for it.
func DecodeJob(data []byte) (*Job, error) {
	ends := 0
	for _, b := range data {
		if b < 0x80 {
			ends++
		}
	}
	r := jobReader{data: data, arena: make([]uint32, ends)}
	j := new(Job)
	if err := r.job(j); err != nil {
		return nil, fmt.Errorf("wire: decode job: %w", err)
	}
	return j, nil
}

// jobReader is DecodeJob's cursor over a body, with the unused tail of
// the job's arena.
type jobReader struct {
	data  []byte
	pos   int
	arena []uint32
}

func (r *jobReader) job(j *Job) error {
	if len(r.data) == 0 || r.data[0] != JobFormat {
		return fmt.Errorf("%w: body does not open with format byte %#02x", ErrJobFormat, JobFormat)
	}
	r.pos = 1
	var head [7]uint64
	for i, width := range [...]int{32, 64, strconv.IntSize, strconv.IntSize, 64, 64, strconv.IntSize} {
		x, err := r.uvarint(width)
		if err != nil {
			return err
		}
		head[i] = x
	}
	j.UID, j.Epoch, j.K, j.R = uint32(head[0]), head[1], int(head[2]), int(head[3])
	j.Lease, j.LeaseDeadlineMS, j.Attempt = head[4], int64(head[5]), int(head[6])
	if err := r.profile(&j.Profile); err != nil {
		return err
	}
	// A candidate is an id and two counts at the least.
	n, err := r.count((len(r.data) - r.pos) / 3)
	if err != nil {
		return err
	}
	if n > 0 {
		j.Candidates = make([]ProfileMsg, n)
	}
	for i := range j.Candidates {
		if err := r.profile(&j.Candidates[i]); err != nil {
			return err
		}
	}
	if r.pos != len(r.data) {
		return fmt.Errorf("%w: %d after the last candidate", ErrTrailingBytes, len(r.data)-r.pos)
	}
	return nil
}

func (r *jobReader) profile(m *ProfileMsg) error {
	id, err := r.uvarint(32)
	if err != nil {
		return err
	}
	m.ID = uint32(id)
	if m.Liked, err = r.list(); err != nil {
		return err
	}
	m.Disliked, err = r.list()
	return err
}

// count reads an element count and checks it against room, the most
// elements the rest of the body can hold.
func (r *jobReader) count(room int) (int, error) {
	at := r.pos
	n, err := r.uvarint(32)
	if err != nil {
		return 0, err
	}
	if n > uint64(room) {
		return 0, fmt.Errorf("%w: count %d at offset %d, room for %d", ErrTruncated, n, at, room)
	}
	return int(n), nil
}

// list reads one gap-coded list: its count, then its first element and
// the gaps, which must each be at least 1 and sum to at most 2^32-1.
func (r *jobReader) list() ([]uint32, error) {
	// Each element is a varint, whose final byte the arena holds a slot
	// for until a list carves it, so a list longer than the arena's tail
	// cannot be in the body.
	n, err := r.count(len(r.arena))
	if err != nil || n == 0 {
		return nil, err
	}
	out := r.arena[:n:n]
	r.arena = r.arena[n:]
	var sum uint64
	for i := range out {
		g, err := r.uvarint(32)
		if err != nil {
			return nil, err
		}
		if g == 0 && i > 0 {
			return nil, fmt.Errorf("%w: zero gap at element %d, offset %d", ErrBadGap, i, r.pos-1)
		}
		if sum += g; sum > 1<<32-1 {
			return nil, fmt.Errorf("%w: element %d passes 2^32-1, offset %d", ErrBadGap, i, r.pos-1)
		}
		out[i] = uint32(sum)
	}
	return out, nil
}

// uvarint reads one varint of a field width bits wide: in shortest form
// (no 0x00 final byte after the first), no longer than the width needs,
// and in range.
func (r *jobReader) uvarint(width int) (uint64, error) {
	data, at := r.data, r.pos
	maxLen := (width + 6) / 7
	var x uint64
	for i := at; i < len(data) && i-at < maxLen; i++ {
		b := data[i]
		x |= uint64(b&0x7f) << (7 * (i - at))
		if b >= 0x80 {
			continue
		}
		n := i - at + 1
		switch {
		case b == 0 && n > 1:
			return 0, fmt.Errorf("%w: varint at offset %d is not in shortest form", ErrBadVarint, at)
		case n == maxLen && b>>(width-7*(n-1)) != 0:
			return 0, fmt.Errorf("%w: varint at offset %d overflows its %d-bit field", ErrBadVarint, at, width)
		}
		r.pos = i + 1
		return x, nil
	}
	if len(data)-at < maxLen {
		return 0, fmt.Errorf("%w: varint at offset %d", ErrTruncated, at)
	}
	return 0, fmt.Errorf("%w: varint at offset %d is longer than its %d-bit field allows", ErrBadVarint, at, width)
}
