// Package frame is HyRec's binary framed transport: a length-prefixed
// TLV codec carried over persistent TCP connections with
// connection-level stream multiplexing. One socket interleaves many
// in-flight exchanges — rate batches, job pulls, result posts, batched
// acks, replication shipments — each tagged with a uvarint stream ID,
// so the dispatch plane stops paying per-request HTTP and JSON costs on
// its hot paths. The JSON /v1 protocol remains the compatibility
// surface; where a payload's JSON shape matters (job payloads, result
// bodies) the frame carries the exact JSON bytes the HTTP path would
// serve, and where it does not (rate batches, acks, replication) the
// payload is a raw little-endian struct (msg.go).
//
// Frame grammar:
//
//	frame   := type(1 byte) | stream(uvarint) | length(uvarint) | payload
//	payload := length bytes, format per type
//
// A request carries the initiator's chosen stream ID; the response
// echoes it, so any number of exchanges overlap on one connection.
// Stream IDs have connection scope and may be reused once answered.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Type identifies a frame's payload format.
type Type byte

// The frame vocabulary. Requests travel initiator→listener; each is
// answered on the same stream by its response type or by TError.
const (
	// THello opens a connection (client→server): magic, protocol
	// version, and the node-plane secret ("" outside the node plane).
	// Answered by THelloOK (or TError + close on a version mismatch).
	THello Type = 0x01
	// THelloOK accepts the handshake: version byte.
	THelloOK Type = 0x02
	// TError is the error envelope of any exchange: code, message and
	// optional primary-address hint, each a uvarint-length-prefixed
	// string (the binary form of wire.ErrorBody).
	TError Type = 0x03
	// TRateBatch is a binary rating batch (msg.go). Answered by TRateOK.
	TRateBatch Type = 0x10
	// TRateOK acknowledges a rate batch: accepted count, uvarint.
	TRateOK Type = 0x11
	// TJobPull asks for the next leased worker job: max wait in
	// milliseconds, uvarint. Answered by TJob.
	TJobPull Type = 0x12
	// TJob carries one personalization job as the exact JSON bytes the
	// HTTP path serves (byte-identical payloads); an empty payload means
	// the queue stayed idle for the poll window.
	TJob Type = 0x13
	// TJobGet asks for one user's job payload: uid, uint32 LE.
	// Answered by TJob.
	TJobGet Type = 0x14
	// TResult posts a widget result as the exact JSON bytes a POST
	// /v1/result body would carry. Answered by TRecs.
	TResult Type = 0x15
	// TRecs carries resolved recommendations: count uvarint + uint32 LE
	// items.
	TRecs Type = 0x16
	// TAckBatch completes or abandons N leases in one frame (msg.go).
	// Answered by TAckOK.
	TAckBatch Type = 0x17
	// TAckOK acknowledges an ack batch: applied count, uvarint.
	TAckOK Type = 0x18
	// TReplBatch ships one binary replication batch (msg.go); node-plane
	// only — the handshake secret must have matched. Answered by TReplOK.
	TReplBatch Type = 0x19
	// TReplOK acknowledges a replication batch: applied count + echoed
	// seq, both uvarint, then a single 0x01 byte only when a delta
	// shipment hit a sequence gap (wire.ReplAck.Gap).
	TReplOK Type = 0x1a
)

// Version is the framed-protocol version byte the handshake pins.
const Version = 1

// Magic opens every THello payload; a listener that reads anything else
// on a fresh connection drops it before allocating session state.
const Magic = "HYF1"

// MaxPayload bounds a frame's claimed payload length. Sized for the
// largest legitimate payload (a full replication chunk); every decoder
// rejects a claimed length beyond it before allocating, mirroring
// persist.Decode's discipline for untrusted input.
const MaxPayload = 8 << 20

// maxHeader is the worst-case encoded header: type byte + two maximal
// uvarints.
const maxHeader = 1 + 2*binary.MaxVarintLen64

// Typed decode failures. Every decoder in this package guarantees:
// arbitrary input yields either a valid frame/message or an error
// wrapping one of these (or a plain decode error) — never a panic and
// never an allocation sized by unvalidated input. The Fuzz* targets in
// fuzz_test.go enforce that contract.
var (
	// ErrShort: the buffer ends mid-frame; read more bytes and retry.
	ErrShort = errors.New("frame: short frame")
	// ErrTooLarge: a claimed length exceeds a protocol limit.
	ErrTooLarge = errors.New("frame: length exceeds protocol limit")
	// ErrMalformed: a structurally invalid frame or message.
	ErrMalformed = errors.New("frame: malformed")
)

// Frame is one decoded frame. Payload aliases the decode input — copy
// it before the underlying buffer is reused.
type Frame struct {
	Type    Type
	Stream  uint64
	Payload []byte
}

// AppendFrame appends the encoded frame to dst and returns the extended
// slice.
func AppendFrame(dst []byte, t Type, stream uint64, payload []byte) []byte {
	dst = append(dst, byte(t))
	dst = binary.AppendUvarint(dst, stream)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	return append(dst, payload...)
}

// DecodeFrame decodes one frame from the head of data, returning it and
// the bytes consumed. maxPayload caps the claimed payload length
// (<= 0 means MaxPayload); a claim beyond it fails with ErrTooLarge
// before any allocation. An incomplete frame fails with ErrShort.
func DecodeFrame(data []byte, maxPayload int) (Frame, int, error) {
	if maxPayload <= 0 || maxPayload > MaxPayload {
		maxPayload = MaxPayload
	}
	if len(data) == 0 {
		return Frame{}, 0, ErrShort
	}
	t := Type(data[0])
	rest := data[1:]
	stream, n := binary.Uvarint(rest)
	if n == 0 {
		if len(data) > maxHeader {
			return Frame{}, 0, fmt.Errorf("%w: unterminated stream id", ErrMalformed)
		}
		return Frame{}, 0, ErrShort
	}
	if n < 0 {
		return Frame{}, 0, fmt.Errorf("%w: stream id overflows uvarint", ErrMalformed)
	}
	rest = rest[n:]
	length, m := binary.Uvarint(rest)
	if m == 0 {
		if len(data) > maxHeader {
			return Frame{}, 0, fmt.Errorf("%w: unterminated length", ErrMalformed)
		}
		return Frame{}, 0, ErrShort
	}
	if m < 0 {
		return Frame{}, 0, fmt.Errorf("%w: length overflows uvarint", ErrMalformed)
	}
	rest = rest[m:]
	if length > uint64(maxPayload) {
		return Frame{}, 0, fmt.Errorf("%w: payload of %d bytes exceeds %d", ErrTooLarge, length, maxPayload)
	}
	if uint64(len(rest)) < length {
		return Frame{}, 0, ErrShort
	}
	consumed := 1 + n + m + int(length)
	return Frame{Type: t, Stream: stream, Payload: rest[:length:length]}, consumed, nil
}
