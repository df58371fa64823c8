package frame

import (
	"encoding/binary"
	"fmt"

	"hyrec/internal/core"
	"hyrec/internal/wire"
)

// Binary payload formats for the messages whose JSON shape carries no
// contract: rating batches, ack batches, replication shipments, the
// handshake and the error envelope. Numbers are uint32 little-endian
// where fixed-width and uvarint where small-biased; strings and arrays
// are uvarint-count-prefixed. Every decoder bounds claimed counts
// against both the protocol limits and the bytes actually present
// before allocating, so a hostile length prefix cannot balloon memory.

// MaxAckBatch bounds the leases one TAckBatch may carry; larger batches
// are chunked by the sender.
const MaxAckBatch = 1024

// maxStringLen bounds any length-prefixed string (error codes,
// messages, addresses, handshake secrets).
const maxStringLen = 4096

// Ack is one lease completion (Done) or abandonment (!Done) inside a
// TAckBatch.
type Ack struct {
	Lease uint64
	Done  bool
}

// ---- THello ----

// AppendHello appends a handshake payload: magic, version, secret.
func AppendHello(dst []byte, secret string) []byte {
	dst = append(dst, Magic...)
	dst = append(dst, Version)
	return appendString(dst, secret)
}

// DecodeHello parses a handshake payload, returning the peer's version
// and node-plane secret.
func DecodeHello(data []byte) (version byte, secret string, err error) {
	if len(data) < len(Magic)+1 {
		return 0, "", fmt.Errorf("%w: hello of %d bytes", ErrMalformed, len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return 0, "", fmt.Errorf("%w: bad hello magic", ErrMalformed)
	}
	version = data[len(Magic)]
	secret, rest, err := cutString(data[len(Magic)+1:])
	if err != nil {
		return 0, "", fmt.Errorf("hello secret: %w", err)
	}
	if len(rest) != 0 {
		return 0, "", fmt.Errorf("%w: %d trailing hello bytes", ErrMalformed, len(rest))
	}
	return version, secret, nil
}

// ---- TError ----

// AppendError appends an error-envelope payload: code, message, the
// optional primary-address hint of not_primary answers, and the
// optional retry-after hint (milliseconds) of overloaded answers. A
// zero retryMS is omitted entirely, keeping the byte form of every
// pre-existing error identical.
func AppendError(dst []byte, code, msg, primary string, retryMS uint64) []byte {
	dst = appendString(dst, code)
	dst = appendString(dst, msg)
	dst = appendString(dst, primary)
	if retryMS > 0 {
		dst = binary.AppendUvarint(dst, retryMS)
	}
	return dst
}

// DecodeError parses an error-envelope payload. retryMS is zero when
// the optional trailing hint is absent (every pre-overload sender).
func DecodeError(data []byte) (code, msg, primary string, retryMS uint64, err error) {
	code, data, err = cutString(data)
	if err != nil {
		return "", "", "", 0, fmt.Errorf("error code: %w", err)
	}
	msg, data, err = cutString(data)
	if err != nil {
		return "", "", "", 0, fmt.Errorf("error message: %w", err)
	}
	primary, data, err = cutString(data)
	if err != nil {
		return "", "", "", 0, fmt.Errorf("error primary: %w", err)
	}
	if len(data) > 0 {
		var n int
		retryMS, n = binary.Uvarint(data)
		if n <= 0 {
			return "", "", "", 0, fmt.Errorf("%w: bad error retry-after", ErrMalformed)
		}
		data = data[n:]
	}
	if len(data) != 0 {
		return "", "", "", 0, fmt.Errorf("%w: %d trailing error bytes", ErrMalformed, len(data))
	}
	return code, msg, primary, retryMS, nil
}

// ---- TRateBatch ----

// AppendRateBatch appends a binary rating batch: count, then
// (uid u32, item u32, liked byte) per rating.
func AppendRateBatch(dst []byte, ratings []core.Rating) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ratings)))
	for _, r := range ratings {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(r.User))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(r.Item))
		dst = append(dst, boolByte(r.Liked))
	}
	return dst
}

// DecodeRateBatch parses a binary rating batch, appending to dst (pass
// a pooled slice to keep the hot path allocation-free). The claimed
// count is bounded by wire.MaxBatchRatings and by the bytes present.
func DecodeRateBatch(data []byte, dst []core.Rating) ([]core.Rating, error) {
	count, data, err := cutCount(data, wire.MaxBatchRatings, 9, "rate batch")
	if err != nil {
		return nil, err
	}
	for i := 0; i < count; i++ {
		uid := binary.LittleEndian.Uint32(data)
		item := binary.LittleEndian.Uint32(data[4:])
		dst = append(dst, core.Rating{
			User:  core.UserID(uid),
			Item:  core.ItemID(item),
			Liked: data[8] != 0,
		})
		data = data[9:]
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("%w: %d trailing rate-batch bytes", ErrMalformed, len(data))
	}
	return dst, nil
}

// ---- TAckBatch ----

// AppendAckBatch appends a binary ack batch: count, then
// (lease uvarint, done byte) per ack — one frame covering N completed
// leases.
func AppendAckBatch(dst []byte, acks []Ack) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(acks)))
	for _, a := range acks {
		dst = binary.AppendUvarint(dst, a.Lease)
		dst = append(dst, boolByte(a.Done))
	}
	return dst
}

// DecodeAckBatch parses a binary ack batch, appending to dst. The
// claimed count is bounded by MaxAckBatch and by the bytes present.
func DecodeAckBatch(data []byte, dst []Ack) ([]Ack, error) {
	count, data, err := cutCount(data, MaxAckBatch, 2, "ack batch")
	if err != nil {
		return nil, err
	}
	for i := 0; i < count; i++ {
		lease, n := binary.Uvarint(data)
		if n <= 0 || n >= len(data)+1 || len(data[n:]) < 1 {
			return nil, fmt.Errorf("%w: truncated ack %d", ErrMalformed, i)
		}
		if lease == 0 {
			return nil, fmt.Errorf("%w (ack %d)", wire.ErrMissingLease, i)
		}
		dst = append(dst, Ack{Lease: lease, Done: data[n] != 0})
		data = data[n+1:]
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("%w: %d trailing ack-batch bytes", ErrMalformed, len(data))
	}
	return dst, nil
}

// ---- TRecs / TJobGet / small scalar payloads ----

// AppendU32s appends a count-prefixed uint32 array (recommendations,
// neighbor lists).
func AppendU32s(dst []byte, xs []uint32) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(xs)))
	for _, x := range xs {
		dst = binary.LittleEndian.AppendUint32(dst, x)
	}
	return dst
}

// DecodeU32s parses a count-prefixed uint32 array, appending to dst.
// The claimed count is bounded by maxCount and by the bytes present.
func DecodeU32s(data []byte, dst []uint32, maxCount int) ([]uint32, []byte, error) {
	count, data, err := cutCount(data, maxCount, 4, "u32 array")
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < count; i++ {
		dst = append(dst, binary.LittleEndian.Uint32(data))
		data = data[4:]
	}
	return dst, data, nil
}

// AppendUint appends one uvarint scalar (accepted counts, wait windows).
func AppendUint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

// DecodeUint parses one uvarint scalar payload.
func DecodeUint(data []byte) (uint64, error) {
	v, n := binary.Uvarint(data)
	if n <= 0 || n != len(data) {
		return 0, fmt.Errorf("%w: bad uvarint payload", ErrMalformed)
	}
	return v, nil
}

// AppendUID appends a uint32 user ID payload (TJobGet).
func AppendUID(dst []byte, uid uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, uid)
}

// DecodeUID parses a uint32 user ID payload.
func DecodeUID(data []byte) (uint32, error) {
	if len(data) != 4 {
		return 0, fmt.Errorf("%w: uid payload of %d bytes", ErrMalformed, len(data))
	}
	return binary.LittleEndian.Uint32(data), nil
}

// ---- TReplBatch ----

// AppendReplBatch appends a binary replication batch: epoch, partition,
// seq, full flag, then count-prefixed users, each a uid plus four
// count-prefixed uint32 arrays (liked, disliked, neighbors, recs), then
// — only when the batch carries rating deltas — a trailing ratings
// section in the TRateBatch encoding. A state-only batch is therefore
// byte-identical to the pre-delta format.
func AppendReplBatch(dst []byte, b *wire.ReplBatch) []byte {
	dst = binary.AppendUvarint(dst, b.Epoch)
	dst = binary.AppendUvarint(dst, uint64(b.Partition))
	dst = binary.AppendUvarint(dst, b.Seq)
	dst = append(dst, boolByte(b.Full))
	dst = binary.AppendUvarint(dst, uint64(len(b.Users)))
	for i := range b.Users {
		u := &b.Users[i]
		dst = binary.LittleEndian.AppendUint32(dst, u.UID)
		dst = AppendU32s(dst, u.Liked)
		dst = AppendU32s(dst, u.Disliked)
		dst = AppendU32s(dst, u.Neighbors)
		dst = AppendU32s(dst, u.Recs)
	}
	if len(b.Ratings) > 0 {
		dst = binary.AppendUvarint(dst, uint64(len(b.Ratings)))
		for _, r := range b.Ratings {
			dst = binary.LittleEndian.AppendUint32(dst, r.UID)
			dst = binary.LittleEndian.AppendUint32(dst, r.Item)
			dst = append(dst, boolByte(r.Liked))
		}
	}
	return dst
}

// DecodeReplBatch parses a binary replication batch under the same
// bounds as the JSON decoder (wire.DecodeReplBatch): body, user and
// rating counts capped, per-array claims bounded by the bytes present.
// The ratings section is optional: a payload that ends after its users
// (every pre-delta sender) is a state-only batch, and a present section
// must be non-empty and consume the payload exactly.
func DecodeReplBatch(data []byte) (*wire.ReplBatch, error) {
	if len(data) > wire.MaxReplBodyBytes {
		return nil, fmt.Errorf("%w: repl batch of %d bytes exceeds %d", ErrTooLarge, len(data), wire.MaxReplBodyBytes)
	}
	var b wire.ReplBatch
	var err error
	if b.Epoch, data, err = cutUvarint(data, "repl epoch"); err != nil {
		return nil, err
	}
	part, data, err := cutUvarint(data, "repl partition")
	if err != nil {
		return nil, err
	}
	if part >= wire.MaxNodePartitions {
		return nil, fmt.Errorf("%w: repl partition %d out of [0, %d)", ErrMalformed, part, wire.MaxNodePartitions)
	}
	b.Partition = int(part)
	if b.Seq, data, err = cutUvarint(data, "repl seq"); err != nil {
		return nil, err
	}
	if len(data) < 1 {
		return nil, fmt.Errorf("%w: truncated repl flags", ErrMalformed)
	}
	b.Full = data[0] != 0
	data = data[1:]
	count, data, err := cutCount(data, wire.MaxReplUsers, 8, "repl users")
	if err != nil {
		return nil, err
	}
	b.Users = make([]wire.ReplUser, 0, count)
	for i := 0; i < count; i++ {
		if len(data) < 4 {
			return nil, fmt.Errorf("%w: truncated repl user %d", ErrMalformed, i)
		}
		u := wire.ReplUser{UID: binary.LittleEndian.Uint32(data)}
		data = data[4:]
		for _, field := range []*[]uint32{&u.Liked, &u.Disliked, &u.Neighbors, &u.Recs} {
			var xs []uint32
			xs, data, err = DecodeU32s(data, nil, len(data)/4+1)
			if err != nil {
				return nil, fmt.Errorf("repl user %d: %w", i, err)
			}
			if len(xs) > 0 {
				*field = xs
			}
		}
		b.Users = append(b.Users, u)
	}
	if len(data) == 0 {
		return &b, nil
	}
	count, data, err = cutCount(data, wire.MaxReplRatings, 9, "repl ratings")
	if err != nil {
		return nil, err
	}
	if count == 0 || len(data) != 9*count {
		return nil, fmt.Errorf("%w: repl ratings section of %d entries over %d bytes", ErrMalformed, count, len(data))
	}
	b.Ratings = make([]wire.RatingMsg, count)
	for i := range b.Ratings {
		b.Ratings[i] = wire.RatingMsg{
			UID:   binary.LittleEndian.Uint32(data),
			Item:  binary.LittleEndian.Uint32(data[4:]),
			Liked: data[8] != 0,
		}
		data = data[9:]
	}
	return &b, nil
}

// ---- shared helpers ----

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

func appendString(dst []byte, s string) []byte {
	if len(s) > maxStringLen {
		s = s[:maxStringLen]
	}
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// cutString splits one length-prefixed string off the head of data.
func cutString(data []byte) (string, []byte, error) {
	n, sz := binary.Uvarint(data)
	if sz <= 0 {
		return "", nil, fmt.Errorf("%w: bad string length", ErrMalformed)
	}
	if n > maxStringLen {
		return "", nil, fmt.Errorf("%w: string of %d bytes exceeds %d", ErrTooLarge, n, maxStringLen)
	}
	rest := data[sz:]
	if uint64(len(rest)) < n {
		return "", nil, fmt.Errorf("%w: truncated string", ErrMalformed)
	}
	return string(rest[:n]), rest[n:], nil
}

// cutCount splits a uvarint element count off the head of data,
// validating it against both the protocol cap and the bytes actually
// present (minSize bytes per element) — the claimed-length bounding
// discipline shared with persist.Decode.
func cutCount(data []byte, max, minSize int, what string) (int, []byte, error) {
	count, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: bad %s count", ErrMalformed, what)
	}
	rest := data[n:]
	if count > uint64(max) {
		return 0, nil, fmt.Errorf("%w: %s of %d exceeds %d", ErrTooLarge, what, count, max)
	}
	if count*uint64(minSize) > uint64(len(rest)) {
		return 0, nil, fmt.Errorf("%w: %s claims %d entries, %d bytes remain", ErrMalformed, what, count, len(rest))
	}
	return int(count), rest, nil
}

func cutUvarint(data []byte, what string) (uint64, []byte, error) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: bad %s", ErrMalformed, what)
	}
	return v, data[n:], nil
}
