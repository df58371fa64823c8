package wire

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// This file is the hand-written JSON reader behind DecodeJob,
// DecodeResult, DecodeWSClientMsg, DecodeRateRequest and DecodeAck — the
// twin of the hand-written encoders in encode.go. It is a single pass
// over the body: integer arrays are scanned digit by digit straight into
// one []uint32 arena per message, and nothing is reflected over.
//
// The contract is encoding/json's, for these message types, bit for bit:
// every input json.Unmarshal accepts is accepted with a deeply equal
// value, everything it rejects is rejected. That covers the parts of its
// behaviour nobody would choose but deployed peers may rely on —
// whitespace anywhere, keys in any order and matched case-insensitively,
// unknown members validated and skipped, null leaving its target alone,
// a repeated key decoding *into* what the first occurrence left (structs
// merge member-wise, arrays element-wise) — and its limits: numbers must
// be plain integers in range for the field ("1.0", "1e3", "-1" into an
// unsigned field and 4294967296 into a uint32 all fail), nesting stops
// at 10000. encoding/json stays in the tests as the oracle the
// differential fuzzers (FuzzDecodeJob, FuzzDecodeResult,
// FuzzDecodeWSClientMsg, FuzzDecodeRateBatch, FuzzDecodeAck) hold this
// file to.

// maxNesting is encoding/json's nesting limit.
const maxNesting = 10000

var errUnexpectedEnd = errors.New("unexpected end of JSON input")

// jscan is the reader's state: a cursor over data, the current nesting
// depth, and the unused tail of the message's integer arena.
type jscan struct {
	data  []byte
	pos   int
	depth int
	// free is the arena's pristine (all-zero, never handed out) tail;
	// uint32s carves arrays off its front. elemHint sizes the message's
	// array of objects (a job's candidates, a batch's ratings).
	free     []uint32
	elemHint int
	keybuf   [32]byte
}

// newScan sizes the arena from the body: every array element follows a
// '[' or a ',', so their count bounds the number of integers, and an
// element takes at least two bytes. The arena is what the decoded
// message's integer slices alias; it lives as long as any of them does.
func newScan(data []byte) jscan {
	n := bytes.Count(data, []byte{','}) + bytes.Count(data, []byte{'['})
	return jscan{data: data, free: make([]uint32, min(n, len(data)/2))}
}

func (s *jscan) errSyntax() error {
	if s.pos >= len(s.data) {
		return errUnexpectedEnd
	}
	return fmt.Errorf("invalid character %q at offset %d", s.data[s.pos], s.pos)
}

func (s *jscan) errType(want string) error {
	if s.pos >= len(s.data) {
		return errUnexpectedEnd
	}
	return fmt.Errorf("cannot decode value at offset %d into %s", s.pos, want)
}

// skipSpace advances past JSON whitespace and returns the byte at the
// cursor, 0 at the end of input (NUL is valid nowhere outside a string,
// so the two never need telling apart).
func (s *jscan) skipSpace() byte {
	for s.pos < len(s.data) && isSpace(s.data[s.pos]) {
		s.pos++
	}
	return byteAt(s.data, s.pos)
}

func isSpace(c byte) bool { return c == ' ' || c == '\n' || c == '\t' || c == '\r' }

// byteAt is data[p], or 0 past the end.
func byteAt(data []byte, p int) byte {
	if p < len(data) {
		return data[p]
	}
	return 0
}

// finish closes a top-level decode: err if the value failed, else an
// error for anything but whitespace after it.
func (s *jscan) finish(err error) error {
	if s.skipSpace(); err == nil && s.pos < len(s.data) {
		return s.errSyntax()
	}
	return err
}

// literal consumes the given keyword.
func (s *jscan) literal(word string) error {
	if end := s.pos + len(word); end <= len(s.data) && string(s.data[s.pos:end]) == word {
		s.pos = end
		return nil
	}
	return s.errSyntax()
}

// number consumes one JSON number and returns its text.
func (s *jscan) number() ([]byte, error) {
	start := s.pos
	digits := func() bool {
		from := s.pos
		for byteAt(s.data, s.pos)-'0' <= 9 {
			s.pos++
		}
		return s.pos > from
	}
	if byteAt(s.data, s.pos) == '-' {
		s.pos++
	}
	if byteAt(s.data, s.pos) == '0' {
		s.pos++
	} else if !digits() {
		return nil, s.errSyntax()
	}
	if byteAt(s.data, s.pos) == '.' {
		s.pos++
		if !digits() {
			return nil, s.errSyntax()
		}
	}
	if c := byteAt(s.data, s.pos); c == 'e' || c == 'E' {
		s.pos++
		if c := byteAt(s.data, s.pos); c == '+' || c == '-' {
			s.pos++
		}
		if !digits() {
			return nil, s.errSyntax()
		}
	}
	return s.data[start:s.pos], nil
}

// integer returns the text of the number at the cursor, or nil for a
// null (which leaves the target field as it is).
func (s *jscan) integer() ([]byte, error) {
	switch c := s.skipSpace(); {
	case c == 'n':
		return nil, s.literal("null")
	case c == '-' || c-'0' <= 9:
		return s.number()
	default:
		return nil, s.errType("a number")
	}
}

// scanUint decodes an unsigned integer field of the given width.
func scanUint[T uint32 | uint64](s *jscan, dst *T, bits int) error {
	lit, err := s.integer()
	if err != nil || lit == nil {
		return err
	}
	v, err := strconv.ParseUint(string(lit), 10, bits)
	if err != nil {
		return fmt.Errorf("number %s does not fit an unsigned %d-bit field", lit, bits)
	}
	*dst = T(v)
	return nil
}

// scanInt decodes a signed integer field of the given width.
func scanInt[T int | int64](s *jscan, dst *T, bits int) error {
	lit, err := s.integer()
	if err != nil || lit == nil {
		return err
	}
	v, err := strconv.ParseInt(string(lit), 10, bits)
	if err != nil {
		return fmt.Errorf("number %s does not fit a signed %d-bit field", lit, bits)
	}
	*dst = T(v)
	return nil
}

// boolean decodes a bool field.
func (s *jscan) boolean(dst *bool) error {
	switch s.skipSpace() {
	case 'n':
		return s.literal("null")
	case 't':
		*dst = true
		return s.literal("true")
	case 'f':
		*dst = false
		return s.literal("false")
	default:
		return s.errType("a bool")
	}
}

// uint32s decodes an array of uint32 (or null, which clears the field)
// — the inner loop a job spends its decode time in. A first occurrence
// is carved off the arena; a repeated key decodes over the slice the
// earlier occurrence left, which is what makes a null element keep the
// value encoding/json would keep.
func (s *jscan) uint32s(dst *[]uint32) error {
	switch s.skipSpace() {
	case 'n':
		*dst = nil
		return s.literal("null")
	case '[':
	default:
		return s.errType("an array of numbers")
	}
	s.pos++
	v := *dst
	fresh := cap(v) == 0
	if fresh {
		v = s.free[:0]
	}
	if s.skipSpace() == ']' {
		s.pos++
		*dst = []uint32{}
		return nil
	}
	// The cursor is a local for the length of the loop and written back
	// wherever the loop leaves (or calls out).
	n, data, p := 0, s.data, s.pos
	for {
		for p < len(data) && isSpace(data[p]) {
			p++
		}
		var x uint64
		keep := false
		switch c := byteAt(data, p); {
		case c-'1' <= 8:
			for ; p < len(data) && data[p]-'0' <= 9; p++ {
				if x = x*10 + uint64(data[p]-'0'); x > 1<<32-1 {
					return fmt.Errorf("number at offset %d overflows uint32", p)
				}
			}
		case c == '0':
			p++
		case c == 'n':
			s.pos = p
			if err := s.literal("null"); err != nil {
				return err
			}
			p, keep = s.pos, true
		default:
			s.pos = p
			return s.errType("an unsigned integer")
		}
		if n >= len(v) {
			if n < cap(v) {
				v = v[:n+1]
			} else {
				v = append(v, 0)
			}
		}
		if !keep {
			v[n] = uint32(x)
		}
		n++
		for p < len(data) && isSpace(data[p]) {
			p++
		}
		// A fraction, an exponent or a second leading digit lands here
		// too, as neither ',' nor ']'.
		c := byteAt(data, p)
		if c == ',' {
			p++
			continue
		}
		s.pos = p
		if c != ']' {
			return s.errSyntax()
		}
		s.pos++
		break
	}
	if fresh {
		if n <= len(s.free) {
			s.free = s.free[n:]
		} else {
			s.free = nil // outgrown and written to: no longer pristine
		}
		// Capacity-capped, so appending to one list cannot write into
		// the next one's numbers.
		v = v[:n:n]
	}
	*dst = v[:n]
	return nil
}

// str consumes a string, validating it as encoding/json does (escapes
// well-formed, no raw control characters; the UTF-8 may be anything),
// and reports whether it held a backslash.
func (s *jscan) str() (escaped bool, err error) {
	s.pos++ // opening quote
	for s.pos < len(s.data) {
		c := s.data[s.pos]
		switch {
		case c == '"':
			s.pos++
			return escaped, nil
		case c < ' ':
			return false, s.errSyntax()
		case c == '\\':
			escaped = true
			s.pos++
			if s.pos >= len(s.data) {
				return false, errUnexpectedEnd
			}
			switch s.data[s.pos] {
			case 'b', 'f', 'n', 'r', 't', '\\', '/', '"':
			case 'u':
				for i := 0; i < 4; i++ {
					s.pos++
					if s.pos >= len(s.data) {
						return false, errUnexpectedEnd
					}
					if !isHex(s.data[s.pos]) {
						return false, s.errSyntax()
					}
				}
			default:
				return false, s.errSyntax()
			}
		}
		s.pos++
	}
	return false, errUnexpectedEnd
}

func isHex(c byte) bool {
	return c-'0' <= 9 || c-'a' <= 'f'-'a' || c-'A' <= 'F'-'A'
}

// key consumes an object key and returns its unquoted bytes, valid
// until the next call.
func (s *jscan) key() ([]byte, error) {
	start := s.pos + 1
	escaped, err := s.str()
	if err != nil {
		return nil, err
	}
	raw := s.data[start : s.pos-1]
	if !escaped {
		return raw, nil
	}
	out := s.keybuf[:0]
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		if c != '\\' {
			out = append(out, c)
			continue
		}
		i++
		switch raw[i] {
		case 'b':
			out = append(out, '\b')
		case 'f':
			out = append(out, '\f')
		case 'n':
			out = append(out, '\n')
		case 'r':
			out = append(out, '\r')
		case 't':
			out = append(out, '\t')
		case 'u':
			// A surrogate half encodes as U+FFFD. encoding/json joins a
			// valid pair into one rune instead, but neither spelling can
			// match a field name, which is all a key is used for.
			r, _ := strconv.ParseUint(string(raw[i+1:i+5]), 16, 32)
			out = utf8.AppendRune(out, rune(r))
			i += 4
		default:
			out = append(out, raw[i])
		}
	}
	return out, nil
}

// fieldIndex finds key among a struct's JSON names the way
// encoding/json does: exactly, else under Unicode case folding.
func fieldIndex(key []byte, names []string) int {
	for i, name := range names {
		if string(key) == name {
			return i
		}
	}
	for i, name := range names {
		if strings.EqualFold(string(key), name) {
			return i
		}
	}
	return -1
}

// object walks one object, calling field(i) with the cursor at the
// value of each member named names[i]; other members are validated and
// skipped. A null leaves the target untouched.
func (s *jscan) object(names []string, field func(i int) error) error {
	switch s.skipSpace() {
	case 'n':
		return s.literal("null")
	case '{':
	default:
		return s.errType("an object")
	}
	s.pos++
	s.depth++
	if s.skipSpace() == '}' {
		s.pos++
		s.depth--
		return nil
	}
	for {
		if s.skipSpace() != '"' {
			return s.errSyntax()
		}
		key, err := s.key()
		if err != nil {
			return err
		}
		if s.skipSpace() != ':' {
			return s.errSyntax()
		}
		s.pos++
		if i := fieldIndex(key, names); i >= 0 {
			err = field(i)
		} else {
			err = s.skipValue()
		}
		if err != nil {
			return err
		}
		switch s.skipSpace() {
		case ',':
			s.pos++
		case '}':
			s.pos++
			s.depth--
			return nil
		default:
			return s.errSyntax()
		}
	}
}

// skipValue validates and discards one value of any shape — the value
// of a member this protocol version does not know.
func (s *jscan) skipValue() error {
	c := s.skipSpace()
	switch {
	case c == '"':
		_, err := s.str()
		return err
	case c == '-' || c-'0' <= 9:
		_, err := s.number()
		return err
	case c == 't':
		return s.literal("true")
	case c == 'f':
		return s.literal("false")
	case c == 'n':
		return s.literal("null")
	case c != '{' && c != '[':
		return s.errSyntax()
	}
	if s.depth++; s.depth > maxNesting {
		return fmt.Errorf("nesting at offset %d exceeds %d levels", s.pos, maxNesting)
	}
	s.pos++
	closer := c + 2 // '{'+2 == '}', '['+2 == ']'
	if s.skipSpace() == closer {
		s.pos++
		s.depth--
		return nil
	}
	for {
		if c == '{' {
			if s.skipSpace() != '"' {
				return s.errSyntax()
			}
			if _, err := s.str(); err != nil {
				return err
			}
			if s.skipSpace() != ':' {
				return s.errSyntax()
			}
			s.pos++
		}
		if err := s.skipValue(); err != nil {
			return err
		}
		switch s.skipSpace() {
		case ',':
			s.pos++
		case closer:
			s.pos++
			s.depth--
			return nil
		default:
			return s.errSyntax()
		}
	}
}

// ---- message shapes ----

var (
	jobFields     = []string{"uid", "epoch", "k", "r", "lease", "deadline_ms", "attempt", "profile", "candidates"}
	profileFields = []string{"id", "liked", "disliked"}
	resultFields  = []string{"uid", "epoch", "lease", "neighbors", "recs"}
	wsMsgFields   = []string{"want", "ack", "result"}
	ackFields     = []string{"lease", "done"}
	rateFields    = []string{"ratings"}
	ratingFields  = []string{"uid", "item", "liked"}
)

func (s *jscan) job(j *Job) error {
	return s.object(jobFields, func(i int) error {
		switch i {
		case 0:
			return scanUint(s, &j.UID, 32)
		case 1:
			return scanUint(s, &j.Epoch, 64)
		case 2:
			return scanInt(s, &j.K, strconv.IntSize)
		case 3:
			return scanInt(s, &j.R, strconv.IntSize)
		case 4:
			return scanUint(s, &j.Lease, 64)
		case 5:
			return scanInt(s, &j.LeaseDeadlineMS, 64)
		case 6:
			return scanInt(s, &j.Attempt, strconv.IntSize)
		case 7:
			return s.profile(&j.Profile)
		default:
			return scanObjects(s, &j.Candidates, s.profile)
		}
	})
}

func (s *jscan) profile(p *ProfileMsg) error {
	return s.object(profileFields, func(i int) error {
		switch i {
		case 0:
			return scanUint(s, &p.ID, 32)
		case 1:
			return s.uint32s(&p.Liked)
		default:
			return s.uint32s(&p.Disliked)
		}
	})
}

// scanObjects decodes an array of objects (or null, which clears the
// field), one elem call per element; s.elemHint sizes a first
// occurrence. Like uint32s it decodes over whatever an earlier
// occurrence of the key left, element by element.
func scanObjects[T any](s *jscan, dst *[]T, elem func(*T) error) error {
	switch s.skipSpace() {
	case 'n':
		*dst = nil
		return s.literal("null")
	case '[':
	default:
		return s.errType("an array of objects")
	}
	s.pos++
	if s.skipSpace() == ']' {
		s.pos++
		*dst = []T{}
		return nil
	}
	s.depth++
	v := *dst
	if v == nil {
		v = make([]T, 0, s.elemHint)
	}
	n := 0
	for {
		if n >= len(v) {
			if n < cap(v) {
				v = v[:n+1]
			} else {
				var zero T
				v = append(v, zero)
			}
		}
		if err := elem(&v[n]); err != nil {
			return err
		}
		n++
		switch s.skipSpace() {
		case ',':
			s.pos++
			continue
		case ']':
			s.pos++
		default:
			return s.errSyntax()
		}
		break
	}
	s.depth--
	*dst = v[:n]
	return nil
}

func (s *jscan) result(r *Result) error {
	return s.object(resultFields, func(i int) error {
		switch i {
		case 0:
			return scanUint(s, &r.UID, 32)
		case 1:
			return scanUint(s, &r.Epoch, 64)
		case 2:
			return scanUint(s, &r.Lease, 64)
		case 3:
			return s.uint32s(&r.Neighbors)
		default:
			return s.uint32s(&r.Recommendations)
		}
	})
}

func (s *jscan) wsClientMsg(m *WSClientMsg) error {
	return s.object(wsMsgFields, func(i int) error {
		// The two optional legs are pointers: null clears one, anything
		// else decodes into it, allocating on first sight.
		null := i > 0 && s.skipSpace() == 'n'
		switch {
		case i == 0:
			return scanInt(s, &m.Want, strconv.IntSize)
		case i == 1 && null:
			m.Ack = nil
		case i == 1:
			if m.Ack == nil {
				m.Ack = new(AckRequest)
			}
			return s.ack(m.Ack)
		case null:
			m.Result = nil
		default:
			if m.Result == nil {
				m.Result = new(Result)
			}
			return s.result(m.Result)
		}
		return s.literal("null")
	})
}

func (s *jscan) ack(a *AckRequest) error {
	return s.object(ackFields, func(i int) error {
		if i == 0 {
			return scanUint(s, &a.Lease, 64)
		}
		return s.boolean(&a.Done)
	})
}

func (s *jscan) rateRequest(r *RateRequest) error {
	return s.object(rateFields, func(int) error {
		return scanObjects(s, &r.Ratings, s.rating)
	})
}

func (s *jscan) rating(m *RatingMsg) error {
	return s.object(ratingFields, func(i int) error {
		switch i {
		case 0:
			return scanUint(s, &m.UID, 32)
		case 1:
			return scanUint(s, &m.Item, 32)
		default:
			return s.boolean(&m.Liked)
		}
	})
}
