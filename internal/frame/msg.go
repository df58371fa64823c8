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

// AppendHello appends a handshake payload: magic, version, secret, and
// a trailing 1 byte when the connection carries node-forwarded traffic
// (absent otherwise, so a plain hello keeps its original bytes).
func AppendHello(dst []byte, secret string, forwarded bool) []byte {
	dst = append(dst, Magic...)
	dst = append(dst, Version)
	dst = appendString(dst, secret)
	if forwarded {
		dst = append(dst, 1)
	}
	return dst
}

// DecodeHello parses a handshake payload, returning the peer's version,
// node-plane secret and forwarded flag.
func DecodeHello(data []byte) (version byte, secret string, forwarded bool, err error) {
	if len(data) < len(Magic)+1 {
		return 0, "", false, fmt.Errorf("%w: hello of %d bytes", ErrMalformed, len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return 0, "", false, fmt.Errorf("%w: bad hello magic", ErrMalformed)
	}
	version = data[len(Magic)]
	secret, rest, err := cutString(data[len(Magic)+1:])
	if err != nil {
		return 0, "", false, fmt.Errorf("hello secret: %w", err)
	}
	if len(rest) > 0 {
		if rest[0] > 1 {
			return 0, "", false, fmt.Errorf("%w: hello forwarded flag %d", ErrMalformed, rest[0])
		}
		forwarded, rest = rest[0] == 1, rest[1:]
	}
	if len(rest) != 0 {
		return 0, "", false, fmt.Errorf("%w: %d trailing hello bytes", ErrMalformed, len(rest))
	}
	return version, secret, forwarded, nil
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

// ---- TReplBatch / TReplOK ----

// minReplSegment is the fewest bytes a length-prefixed segment takes:
// its length, epoch, partition, seq, flag and user count.
const minReplSegment = 6

// AppendReplShipment appends a TReplBatch payload: the segment count,
// then each segment (appendReplSegment) prefixed by its byte length — a
// segment does not delimit itself, since its ratings section is
// optional.
func AppendReplShipment(dst []byte, segs []wire.ReplBatch) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(segs)))
	for i := range segs {
		start := len(dst)
		dst = appendReplSegment(dst, &segs[i])
		// The length is known once the segment is written: append it,
		// then rotate it in front of the segment.
		n := len(dst) - start
		var hdr [binary.MaxVarintLen64]byte
		h := binary.PutUvarint(hdr[:], uint64(n))
		dst = append(dst, hdr[:h]...)
		copy(dst[start+h:], dst[start:start+n])
		copy(dst[start:], hdr[:h])
	}
	return dst
}

// DecodeReplShipment parses a TReplBatch payload under the same bounds
// as the JSON decoder (wire.DecodeReplShipment, wire.CheckShipment):
// body, segment, user and rating counts capped, each segment's length
// and per-array claims bounded by the bytes present.
func DecodeReplShipment(data []byte) ([]wire.ReplBatch, error) {
	if len(data) > wire.MaxReplBodyBytes {
		return nil, fmt.Errorf("%w: repl shipment of %d bytes exceeds %d", ErrTooLarge, len(data), wire.MaxReplBodyBytes)
	}
	count, data, err := cutCount(data, wire.MaxNodePartitions, minReplSegment, "repl segments")
	if err != nil {
		return nil, err
	}
	segs := make([]wire.ReplBatch, count)
	for i := range segs {
		var n uint64
		if n, data, err = cutUvarint(data, "repl segment length"); err != nil {
			return nil, err
		}
		if n > uint64(len(data)) {
			return nil, fmt.Errorf("%w: repl segment %d claims %d bytes, %d remain", ErrMalformed, i, n, len(data))
		}
		if err := decodeReplSegment(data[:n], &segs[i]); err != nil {
			return nil, fmt.Errorf("repl segment %d: %w", i, err)
		}
		data = data[n:]
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("%w: %d trailing repl shipment bytes", ErrMalformed, len(data))
	}
	if err := wire.CheckShipment(segs); err != nil {
		return nil, err
	}
	return segs, nil
}

// appendReplSegment appends one segment: epoch, partition, seq, full
// flag, then count-prefixed users, each a uid plus four count-prefixed
// uint32 arrays (liked, disliked, neighbors, recs), then — only when the
// segment carries rating deltas — a ratings section in the TRateBatch
// encoding.
func appendReplSegment(dst []byte, b *wire.ReplBatch) []byte {
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

// decodeReplSegment parses one segment, all of data, into b. The ratings
// section is optional: a segment that ends after its users is
// state-only, and a present section must be non-empty and consume the
// segment exactly.
func decodeReplSegment(data []byte, b *wire.ReplBatch) error {
	var err error
	if b.Epoch, data, err = cutUvarint(data, "repl epoch"); err != nil {
		return err
	}
	part, data, err := cutUvarint(data, "repl partition")
	if err != nil {
		return err
	}
	if part >= wire.MaxNodePartitions {
		return fmt.Errorf("%w: repl partition %d out of [0, %d)", ErrMalformed, part, wire.MaxNodePartitions)
	}
	b.Partition = int(part)
	if b.Seq, data, err = cutUvarint(data, "repl seq"); err != nil {
		return err
	}
	if len(data) < 1 {
		return fmt.Errorf("%w: truncated repl flags", ErrMalformed)
	}
	b.Full = data[0] != 0
	data = data[1:]
	count, data, err := cutCount(data, wire.MaxReplUsers, 8, "repl users")
	if err != nil {
		return err
	}
	b.Users = make([]wire.ReplUser, 0, count)
	for i := 0; i < count; i++ {
		if len(data) < 4 {
			return fmt.Errorf("%w: truncated repl user %d", ErrMalformed, i)
		}
		u := wire.ReplUser{UID: binary.LittleEndian.Uint32(data)}
		data = data[4:]
		for _, field := range []*[]uint32{&u.Liked, &u.Disliked, &u.Neighbors, &u.Recs} {
			var xs []uint32
			xs, data, err = DecodeU32s(data, nil, len(data)/4+1)
			if err != nil {
				return fmt.Errorf("repl user %d: %w", i, err)
			}
			if len(xs) > 0 {
				*field = xs
			}
		}
		b.Users = append(b.Users, u)
	}
	if len(data) == 0 {
		return nil
	}
	count, data, err = cutCount(data, wire.MaxReplRatings, 9, "repl ratings")
	if err != nil {
		return err
	}
	if count == 0 || len(data) != 9*count {
		return fmt.Errorf("%w: repl ratings section of %d entries over %d bytes", ErrMalformed, count, len(data))
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
	return nil
}

// AppendReplAcks appends a TReplOK payload: the ack count, then per
// segment its applied count and echoed seq (uvarint) and a gap byte.
func AppendReplAcks(dst []byte, acks []wire.ReplAck) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(acks)))
	for _, a := range acks {
		dst = binary.AppendUvarint(dst, uint64(a.Applied))
		dst = binary.AppendUvarint(dst, a.Seq)
		dst = append(dst, boolByte(a.Gap))
	}
	return dst
}

// DecodeReplAcks parses a TReplOK payload that must answer a shipment of
// segs segments, one ack each.
func DecodeReplAcks(data []byte, segs int) ([]wire.ReplAck, error) {
	count, data, err := cutCount(data, wire.MaxNodePartitions, 3, "repl acks")
	if err != nil {
		return nil, err
	}
	if count != segs {
		return nil, fmt.Errorf("%w: %d repl acks for %d segments", ErrMalformed, count, segs)
	}
	acks := make([]wire.ReplAck, count)
	for i := range acks {
		var applied uint64
		if applied, data, err = cutUvarint(data, "repl ack applied"); err != nil {
			return nil, err
		}
		if acks[i].Seq, data, err = cutUvarint(data, "repl ack seq"); err != nil {
			return nil, err
		}
		if len(data) < 1 || data[0] > 1 {
			return nil, fmt.Errorf("%w: bad repl ack %d gap byte", ErrMalformed, i)
		}
		acks[i].Applied, acks[i].Gap = int(applied), data[0] == 1
		data = data[1:]
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("%w: %d trailing repl ack bytes", ErrMalformed, len(data))
	}
	return acks, nil
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
