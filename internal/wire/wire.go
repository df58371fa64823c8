// Package wire defines HyRec's on-the-wire message formats (Section 4.2 of
// the paper): JSON personalization jobs and KNN-update results with
// hand-written encoders (encode.go) and a hand-written reader (scan.go),
// gzip with pooled writers and pooled, size-bounded readers, a
// version-keyed cache of serialized profiles, and byte meters used to
// reproduce the bandwidth experiments (Figure 10 and Section 5.6).
//
// All identifiers inside messages are pseudonyms minted by a
// core.Anonymizer; this package never sees real IDs.
package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"slices"

	"hyrec/internal/core"
)

// Typed decode failures, so transports map protocol violations to stable
// error-envelope codes without parsing message text. Every decoder in
// this package guarantees: arbitrary input yields either a valid message
// or an error wrapping one of these (or a plain decode error) — never a
// panic. The Fuzz* targets in fuzz_test.go enforce that contract.
var (
	// ErrTooLarge: the request exceeds a protocol limit (MaxBatchRatings
	// or MaxBodyBytes); mapped to CodeTooLarge / HTTP 413.
	ErrTooLarge = errors.New("wire: request exceeds protocol limit")
	// ErrMissingLease: an ack without a lease ID; mapped to
	// CodeBadRequest.
	ErrMissingLease = errors.New("wire: ack missing lease")
)

// ProfileMsg is the JSON form of one (pseudonymised) user profile.
type ProfileMsg struct {
	ID       uint32   `json:"id"`
	Liked    []uint32 `json:"liked"`
	Disliked []uint32 `json:"disliked,omitempty"`
}

// Job is a personalization job: everything the widget needs to run one
// iteration of KNN selection (Algorithm 1) and item recommendation
// (Algorithm 2). It carries the requesting user's own profile plus the
// candidate set assembled by the Sampler.
type Job struct {
	UID   uint32 `json:"uid"`
	Epoch uint64 `json:"epoch"`
	K     int    `json:"k"`
	R     int    `json:"r"`
	// Lease, LeaseDeadlineMS and Attempt are the scheduler's job
	// lifecycle metadata (internal/sched). A server running without the
	// scheduler omits them entirely — the pre-scheduler synchronous wire
	// format — so legacy widgets are unaffected. LeaseDeadlineMS is Unix
	// milliseconds; Attempt is 1 for a first issue, >1 for a straggler
	// re-issue.
	Lease           uint64       `json:"lease,omitempty"`
	LeaseDeadlineMS int64        `json:"deadline_ms,omitempty"`
	Attempt         int          `json:"attempt,omitempty"`
	Profile         ProfileMsg   `json:"profile"`
	Candidates      []ProfileMsg `json:"candidates"`
}

// Result is the widget's reply: the user's new k nearest neighbours (best
// first) and the recommendations it computed, all still pseudonymised under
// the job's epoch.
type Result struct {
	UID   uint32 `json:"uid"`
	Epoch uint64 `json:"epoch"`
	// Lease echoes the job's lease ID so the scheduler retires it on
	// fold-in (implicit ack). Zero for legacy results.
	Lease           uint64   `json:"lease,omitempty"`
	Neighbors       []uint32 `json:"neighbors"`
	Recommendations []uint32 `json:"recs"`
}

// EncodeJob serializes a job with encoding/json. The hot path uses
// AppendJob / JobEncoder with the profile cache instead; both produce
// byte-identical JSON, which TestEncoderEquivalence verifies.
func EncodeJob(j *Job) ([]byte, error) { return json.Marshal(j) }

// DecodeJob parses a personalization job with the single-pass reader in
// scan.go. The job owns its memory: every integer list is a
// capacity-capped window of one arena allocated here, nothing aliases
// data, so the caller may recycle data as soon as DecodeJob returns.
func DecodeJob(data []byte) (*Job, error) {
	s := newScan(data)
	// A candidate is an object of some twenty bytes at the least.
	s.elemHint = min(bytes.Count(data, []byte{'{'}), len(data)/16)
	j := new(Job)
	if err := s.finish(s.job(j)); err != nil {
		return nil, fmt.Errorf("wire: decode job: %w", err)
	}
	return j, nil
}

// EncodeResult serializes a widget result.
func EncodeResult(r *Result) ([]byte, error) { return json.Marshal(r) }

// DecodeResult parses a widget result, on the same reader and with the
// same ownership as DecodeJob.
func DecodeResult(data []byte) (*Result, error) {
	s := newScan(data)
	r := new(Result)
	if err := s.finish(s.result(r)); err != nil {
		return nil, fmt.Errorf("wire: decode result: %w", err)
	}
	return r, nil
}

// DecodeRateRequest parses and validates a POST /v1/rate body: well-formed
// JSON within the MaxBodyBytes and MaxBatchRatings limits. Oversized
// input fails with an error wrapping ErrTooLarge.
func DecodeRateRequest(data []byte) (*RateRequest, error) {
	if len(data) > MaxBodyBytes {
		return nil, fmt.Errorf("%w: body of %d bytes exceeds %d", ErrTooLarge, len(data), MaxBodyBytes)
	}
	// No integer arrays, so no arena (newScan); the ratings slice is sized
	// from the body instead — every '{' but the request's own can open
	// one — up to the batch limit, which is checked once the body has
	// parsed so that a malformed oversized batch stays a decode error.
	s := jscan{data: data, elemHint: min(bytes.Count(data, []byte{'{'}), MaxBatchRatings+1)}
	req := new(RateRequest)
	if err := s.finish(s.rateRequest(req)); err != nil {
		return nil, fmt.Errorf("wire: decode rate request: %w", err)
	}
	if len(req.Ratings) > MaxBatchRatings {
		return nil, fmt.Errorf("%w: batch of %d exceeds %d ratings", ErrTooLarge, len(req.Ratings), MaxBatchRatings)
	}
	return req, nil
}

// DecodeAck parses and validates a POST /v1/ack body. A zero lease fails
// with an error wrapping ErrMissingLease.
func DecodeAck(data []byte) (*AckRequest, error) {
	if len(data) > MaxBodyBytes {
		return nil, fmt.Errorf("%w: body of %d bytes exceeds %d", ErrTooLarge, len(data), MaxBodyBytes)
	}
	s := jscan{data: data}
	req := new(AckRequest)
	if err := s.finish(s.ack(req)); err != nil {
		return nil, fmt.Errorf("wire: decode ack: %w", err)
	}
	if req.Lease == 0 {
		return nil, ErrMissingLease
	}
	return req, nil
}

// ProfileToMsg converts a core.Profile into its wire form, pseudonymising
// every identifier with the given aliaser — pass a core.AliasView when
// assembling a job so every identifier belongs to one epoch. A nil anon
// sends real IDs (used by tests and by deployments that disable
// anonymisation).
//
// Each list goes out in ascending order of the identifiers as sent, not
// in the profile's own (real-ID) order. Under an anonymiser the two are
// unrelated, and must be: a list in real-ID order tells the reader how
// the real IDs behind any two pseudonyms in it compare, and a client
// that sees enough profiles can chain those comparisons into the total
// order of the catalogue the mapping exists to hide (§3.1). It also
// lets MsgToProfile adopt the lists without sorting them again. Every
// encoder and both planes build their bytes from this function, so they
// stay byte-identical to each other. Both lists share one allocation;
// they are capacity-capped, so appending to one cannot clobber the other.
func ProfileToMsg(p core.Profile, anon core.Aliaser) ProfileMsg {
	arena := make([]uint32, 0, len(p.Liked())+len(p.Disliked()))
	msg := ProfileMsg{ID: aliasUser(p.User(), anon)}
	msg.Liked, arena = appendAliased(arena, p.Liked(), anon)
	if len(p.Disliked()) > 0 {
		msg.Disliked, _ = appendAliased(arena, p.Disliked(), anon)
	}
	return msg
}

// MsgToProfile reconstructs a profile from its wire form. Identifiers are
// kept as-is (pseudonymised); the widget works entirely in pseudonym space,
// which is safe because the anonymiser's bijection preserves set
// intersections and therefore similarities. The bulk constructor keeps
// the rating-at-a-time semantics of the original decode loop (duplicates
// collapse, dislikes win) for any input, and takes lists that already are
// what ProfileToMsg sends — strictly ascending, disjoint — in one O(n)
// pass and two allocations. This is the widget's per-candidate hot path.
func MsgToProfile(m ProfileMsg) core.Profile {
	return core.ProfileFromLists(core.UserID(m.ID), m.Liked, m.Disliked)
}

func appendAliased(arena []uint32, items []core.ItemID, anon core.Aliaser) (list, grown []uint32) {
	off := len(arena)
	for _, it := range items {
		if anon == nil {
			arena = append(arena, uint32(it))
		} else {
			arena = append(arena, uint32(anon.AliasItem(it)))
		}
	}
	list = arena[off:len(arena):len(arena)]
	slices.Sort(list)
	return list, arena
}

func aliasUser(u core.UserID, anon core.Aliaser) uint32 {
	if anon == nil {
		return uint32(u)
	}
	return uint32(anon.AliasUser(u))
}
