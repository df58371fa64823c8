package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
)

// The WebSocket worker transport (GET /v1/worker/ws) multiplexes the
// whole worker protocol over one persistent connection:
//
//	server → worker   raw Job JSON (byte-identical to the long-poll
//	                  /v1/job?worker=1 body) or an ErrorEnvelope
//	worker → server   WSClientMsg: job credits, results, acks
//
// Jobs are pushed, not polled: the worker grants credits ("want") sized
// to its compute capacity — a browser tab computing one job at a time
// grants 1 and re-grants after each completion — and the server pushes
// one leased job per credit. Both directions are text frames.

// WSWorkerPath is the socket endpoint of the worker transport.
const WSWorkerPath = V1Prefix + "/worker/ws"

// ErrEmptyWSMsg: a worker message carrying neither credits, an ack, nor
// a result.
var ErrEmptyWSMsg = errors.New("wire: worker socket message carries nothing")

// WSClientMsg is one worker→server message on the socket. Exactly the
// set fields are acted on; a message must carry at least one.
type WSClientMsg struct {
	// Want grants the server Want additional job-push credits.
	Want int `json:"want,omitempty"`
	// Ack resolves a lease without a result (done=false abandons it —
	// the polite churn-out, same semantics as POST /v1/ack).
	Ack *AckRequest `json:"ack,omitempty"`
	// Result folds a completed job back in; Result.Lease completes the
	// lease implicitly, same as POST /v1/result.
	Result *Result `json:"result,omitempty"`
}

// EncodeWSClientMsg serializes a worker socket message.
func EncodeWSClientMsg(m *WSClientMsg) ([]byte, error) { return json.Marshal(m) }

// DecodeWSClientMsg parses and validates a worker→server socket message:
// well-formed JSON within MaxBodyBytes, carrying at least one field, with
// non-negative credits and a non-zero ack lease.
func DecodeWSClientMsg(data []byte) (*WSClientMsg, error) {
	if len(data) > MaxBodyBytes {
		return nil, fmt.Errorf("%w: message of %d bytes exceeds %d", ErrTooLarge, len(data), MaxBodyBytes)
	}
	var m WSClientMsg
	s := newScan(data)
	if err := s.finish(s.wsClientMsg(&m)); err != nil {
		return nil, fmt.Errorf("wire: decode worker socket message: %w", err)
	}
	if m.Want < 0 {
		return nil, fmt.Errorf("wire: negative credit grant %d", m.Want)
	}
	if m.Want == 0 && m.Ack == nil && m.Result == nil {
		return nil, ErrEmptyWSMsg
	}
	if m.Ack != nil && m.Ack.Lease == 0 {
		return nil, ErrMissingLease
	}
	return &m, nil
}

// wsErrorPrefix distinguishes the two server→worker frame shapes. Both
// encoders are ours: jobs always open with {"format": (AppendJob) and
// error envelopes with {"error": (writeJSON/json.Marshal of
// ErrorEnvelope), so a prefix test is exact, not a heuristic.
var wsErrorPrefix = []byte(`{"error"`)

// IsWSError reports whether a server→worker frame is an ErrorEnvelope
// rather than a job payload.
func IsWSError(frame []byte) bool { return bytes.HasPrefix(frame, wsErrorPrefix) }

// DecodeWSError parses a server→worker error frame.
func DecodeWSError(frame []byte) (*ErrorEnvelope, error) {
	var env ErrorEnvelope
	if err := json.Unmarshal(frame, &env); err != nil {
		return nil, fmt.Errorf("wire: decode worker socket error: %w", err)
	}
	return &env, nil
}
