package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// Native Go fuzzers for every decoder on the /v1 ingest surface. The
// contract under fuzz: arbitrary bytes yield either a typed error or a
// message that survives an encode/decode round trip unchanged — never a
// panic, and never silent garbage (a "successful" decode that re-encodes
// to something that decodes differently). The decoders on the
// hand-written reader (scan.go) are additionally differential: every
// input also goes through encoding/json, the two must agree on
// accept/reject, and accepted values must be deeply equal. Seed corpora
// live in
// testdata/fuzz/<FuzzName>/; scripts/fuzz.sh gives each target a short
// CI budget on every push.

func FuzzDecodeRateBatch(f *testing.F) {
	f.Add([]byte(`{"ratings":[{"uid":1,"item":5,"liked":true}]}`))
	f.Add([]byte(`{"ratings":[]}`))
	f.Add([]byte(`{"ratings":null}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(``))
	f.Add([]byte(`{"ratings":[{"uid":4294967295,"item":4294967295,"liked":false}]}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"ratings":[{"uid":-1}]}`))
	for _, seed := range rateEdgeSeeds {
		f.Add([]byte(seed))
	}
	for _, seed := range scannerEdgeSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRateRequest(data)
		var want RateRequest
		oerr := json.Unmarshal(data, &want)
		valid := oerr == nil && len(data) <= MaxBodyBytes && len(want.Ratings) <= MaxBatchRatings
		if (err == nil) != valid {
			t.Fatalf("accept/reject disagree on %q:\n scanner: %v\n  oracle: %v (valid=%v)", data, err, oerr, valid)
		}
		if err != nil {
			if req != nil {
				t.Fatal("error with non-nil request")
			}
			return
		}
		if !reflect.DeepEqual(req, &want) {
			t.Fatalf("values differ on %q:\n scanner: %+v\n  oracle: %+v", data, req, want)
		}
		// No silent garbage: a successful decode re-encodes to JSON that
		// decodes to the same batch.
		re, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		back, err := DecodeRateRequest(re)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !reflect.DeepEqual(back, req) {
			t.Fatalf("round trip changed batch: %+v vs %+v", back, req)
		}
	})
}

// rateEdgeSeeds are scannerEdgeSeeds' cases respelt for the rate and ack
// bodies: key case and folding ("rating\u017f", "li\u212aed"), unknown
// members, null in every position, repeated keys merging element-wise
// into what the first occurrence left, and numbers out of range for
// their field.
var rateEdgeSeeds = []string{
	" {\n\"ratings\" : [ { \"liked\" : true , \"item\":5,\"uid\" : 1 } , {} ] }\t",
	`{"RATINGS":[{"UID":1,"Item":2,"LIKED":true}],"Lease":5,"DONE":true}`,
	`{"rating\u017f":[{"li\u212aed":true,"\u0075id":3}],"lea\u017fe":9,"d\u006fne":true}`,
	`{"ratings":[{"uid":1,"item":2,"liked":true,"when":"now","tags":[1,{"a":null}]}],"v":2}`,
	`{"ratings":[null,{"uid":null,"item":null,"liked":null}],"lease":null,"done":null}`,
	`{"ratings":[{"uid":1,"item":1,"liked":true},{"uid":2,"item":2},{"uid":3,"item":3}],"ratings":[{"item":9}],"ratings":[{},{},{},{}]}`,
	`{"ratings":[{"uid":1}],"ratings":null,"ratings":[{"item":2}]}`,
	`{"ratings":[{"uid":1}],"ratings":[]}`,
	`{"ratings":[{"uid":1,"uid":2,"liked":true,"liked":false}]}`,
	`{"lease":7,"lease":8,"done":true,"done":null}`,
	`{"ratings":[{"uid":4294967296}]}`,
	`{"ratings":[{"item":1.0}]}`,
	`{"ratings":[{"item":1e3}]}`,
	`{"ratings":[{"item":01}]}`,
	`{"ratings":[{"liked":1}]}`,
	`{"ratings":[{"liked":"true"}]}`,
	`{"ratings":{}}`,
	`{"ratings":[1]}`,
	`{"ratings":[[]]}`,
	`{"ratings":[{"uid":1},]}`,
	`{"ratings":[{"uid":1}`,
	`{"lease":18446744073709551616}`,
	`{"lease":-1}`,
	`{"lease":1.5}`,
	`{"lease":"7"}`,
	`{"done":"yes","lease":7}`,
	`{"lease":7,"done":tru`,
}

func FuzzDecodeResult(f *testing.F) {
	f.Add([]byte(`{"uid":7,"epoch":2,"neighbors":[1,2],"recs":[9]}`))
	f.Add([]byte(`{"uid":7,"epoch":2,"lease":77,"neighbors":[],"recs":[]}`))
	f.Add([]byte(`{"uid":0,"epoch":0,"neighbors":null,"recs":null}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`nope`))
	f.Add([]byte(`{"uid":18446744073709551615}`))
	f.Add([]byte(`{"neighbors":[1e309]}`))
	for _, r := range encoderCorpusResults() {
		f.Add(AppendResult(nil, r))
	}
	for _, seed := range scannerEdgeSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want Result
		res := agreeWithOracle(t, data, &want, func() (*Result, error) { return DecodeResult(data) })
		if res == nil {
			return
		}
		// Round trip through both encoders: json.Marshal and the pooled
		// appender must agree, and the bytes must decode back equal.
		std, err := EncodeResult(res)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if app := AppendResult(nil, res); !bytes.Equal(app, std) {
			t.Fatalf("encoder divergence:\n append %s\n stdlib %s", app, std)
		}
		back, err := DecodeResult(std)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !reflect.DeepEqual(back, res) {
			t.Fatalf("round trip changed result: %+v vs %+v", back, res)
		}
	})
}

func FuzzDecodeAck(f *testing.F) {
	f.Add([]byte(`{"lease":77,"done":true}`))
	f.Add([]byte(`{"lease":1,"done":false}`))
	f.Add([]byte(`{"lease":0}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"lease":18446744073709551615,"done":true}`))
	f.Add([]byte(`"lease"`))
	for _, seed := range rateEdgeSeeds {
		f.Add([]byte(seed))
	}
	for _, seed := range scannerEdgeSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeAck(data)
		var want AckRequest
		oerr := json.Unmarshal(data, &want)
		valid := oerr == nil && len(data) <= MaxBodyBytes && want.Lease != 0
		if (err == nil) != valid {
			t.Fatalf("accept/reject disagree on %q:\n scanner: %v\n  oracle: %v (valid=%v)", data, err, oerr, valid)
		}
		if err != nil {
			if req != nil {
				t.Fatal("error with non-nil ack")
			}
			if oerr == nil && len(data) <= MaxBodyBytes && !errors.Is(err, ErrMissingLease) {
				t.Fatalf("well-formed ack without a lease: got %v, want ErrMissingLease", err)
			}
			return
		}
		if *req != want {
			t.Fatalf("values differ on %q:\n scanner: %+v\n  oracle: %+v", data, req, want)
		}
		re, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		back, err := DecodeAck(re)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if *back != *req {
			t.Fatalf("round trip changed ack: %+v vs %+v", back, req)
		}
	})
}

// agreeWithOracle holds one of the hand-written decoders to
// encoding/json on one input: the two must agree on accept/reject, and
// an accepted value must be deeply equal to what json.Unmarshal leaves
// in oracle (nil and empty slices told apart). It returns the decoded
// value, nil when both reject.
func agreeWithOracle[T any](t *testing.T, data []byte, oracle *T, decode func() (*T, error)) *T {
	t.Helper()
	got, err := decode()
	oerr := json.Unmarshal(data, oracle)
	if (err == nil) != (oerr == nil) {
		t.Fatalf("accept/reject disagree on %q:\n scanner: %v\n  oracle: %v", data, err, oerr)
	}
	if err != nil {
		if got != nil {
			t.Fatal("error with non-nil value")
		}
		return nil
	}
	if !reflect.DeepEqual(got, oracle) {
		t.Fatalf("values differ on %q:\n scanner: %+v\n  oracle: %+v", data, got, oracle)
	}
	return got
}

// scannerEdgeSeeds are inputs on the edges of the reader's contract,
// shared by the differential targets: whitespace, key order and case,
// unknown members, null in every position, repeated keys (which
// encoding/json merges into what the first occurrence left), numbers
// that are not plain in-range integers, nesting, and truncation.
var scannerEdgeSeeds = []string{
	" \t\r\n{ \"uid\" : 7 ,\n\"epoch\":2, \"neighbors\" : [ 1 , 2 ] , \"recs\":[ ] } \n",
	`{"candidates":[{"liked":[3,1],"id":9,"disliked":[2]}],"profile":{"liked":[5],"id":42},"r":5,"k":10,"epoch":3,"uid":42}`,
	`{"UID":1,"Epoch":2,"K":3,"PROFILE":{"ID":4,"Liked":[5]},"Candidates":[{"iD":6}],"Neighbors":[7],"RECS":[8]}`,
	`{"\u0075id":1,"\u212a":3,"lea\u017fe":9,"rec\u017F":[1],"want":1}`,
	`{"uid":1,"future":{"a":[1,{"b":"c\\\"\u00e9"}],"n":-1.5e+3,"t":true,"f":false,"z":null},"epoch":2,"":0}`,
	`null`,
	`{"uid":null,"epoch":null,"k":null,"profile":null,"candidates":null,"neighbors":null,"recs":null,"ack":null,"result":null}`,
	`{"profile":{"id":1,"liked":null,"disliked":[null]},"candidates":[null,{"liked":[null,2]}],"neighbors":[null]}`,
	`{"uid":1,"uid":2,"profile":{"id":1,"liked":[1,2,3]},"profile":{"liked":[null,9]},"neighbors":[4,5,6],"neighbors":[null],"neighbors":[null,null,null]}`,
	`{"candidates":[{"id":1,"liked":[7]},{"id":2,"liked":[8]}],"candidates":[{"id":3}],"candidates":[{},{}],"candidates":[],"candidates":[{}]}`,
	`{"ack":{"lease":1},"ack":{"done":true},"result":{"uid":1},"result":{"recs":[1]},"want":2}`,
	`{"uid":4294967295,"epoch":18446744073709551615,"k":9223372036854775807,"r":-9223372036854775808,"deadline_ms":-0}`,
	`{"uid":4294967296}`,
	`{"uid":-1}`,
	`{"uid":1.0}`,
	`{"uid":1e3}`,
	`{"uid":01}`,
	`{"epoch":18446744073709551616}`,
	`{"k":9223372036854775808}`,
	`{"profile":{"liked":[4294967296]}}`,
	`{"profile":{"liked":[-1]}}`,
	`{"profile":{"liked":[1.0]}}`,
	`{"profile":{"liked":[1e3]}}`,
	`{"profile":{"liked":[01]}}`,
	`{"profile":{"liked":[1,]}}`,
	`{"neighbors":["1"],"recs":[true]}`,
	`{"uid":"1"}`,
	`{"profile":[]}`,
	`{"candidates":{}}`,
	`{"candidates":[1]}`,
	`{"ack":{"lease":7,"done":"yes"}}`,
	`{"want":-3}`,
	`{"x":[[[[[[[[[[]]]]]]]]]]}`,
	`{"x":"\u12"}`,
	`{"x":"\q"}`,
	"{\"x\":\"a\tb\"}",
	`{"uid":1}}`,
	`{"uid":1} x`,
	`{"uid":1,}`,
	`{"uid" 1}`,
	`{uid:1}`,
	`{"uid":1,"profile":{"id":1,"liked":[1,2`,
	`{"uid":1,"candidates":[{"id":2,"liked":[1,2]},`,
	`{"uid":nul`,
	`[1,2,3]`,
	`7`,
	`"uid"`,
	``,
}

// FuzzDecodeJob: jobs cross the wire server → widget, and the widget's
// decoder holds the same never-panic contract plus the differential one.
// The oracle is encoding/json into the wire shape (wireJob), then the
// format check and ExpandGaps that DecodeJob runs after its reader.
func FuzzDecodeJob(f *testing.F) {
	f.Add([]byte(`{"format":2,"uid":42,"epoch":3,"k":10,"r":5,"profile":{"id":42,"liked":[1]},"candidates":[{"id":2,"liked":[1,1]}]}`))
	f.Add([]byte(`{"format":2,"uid":1,"epoch":1,"k":5,"r":5,"lease":77,"deadline_ms":123,"attempt":2,"profile":{"id":1,"liked":null},"candidates":null}`))
	f.Add([]byte(`{"format":2,"profile":{"liked":[4294967295,1]},"candidates":[{"liked":[0,0]}]}`))
	f.Add([]byte(`{"format":1,"uid":42}`))
	f.Add([]byte(`{`))
	for name, j := range encoderCorpusJobs() {
		if name != "max-size" { // 200 KB: correct, but too large to mutate usefully
			f.Add(AppendJob(nil, j, nil))
		}
	}
	for _, seed := range scannerEdgeSeeds {
		f.Add([]byte(seed))
		if v2 := withFormat(seed); v2 != seed {
			f.Add([]byte(v2))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		job, err := DecodeJob(data)
		var want wireJob
		oerr := json.Unmarshal(data, &want)
		if oerr == nil && want.Format != JobFormat {
			oerr = ErrJobFormat
		}
		if oerr == nil {
			oerr = ExpandGaps(&want.Job)
		}
		if (err == nil) != (oerr == nil) {
			t.Fatalf("accept/reject disagree on %q:\n scanner: %v\n  oracle: %v", data, err, oerr)
		}
		if err != nil {
			if job != nil {
				t.Fatal("error with non-nil job")
			}
			return
		}
		if !reflect.DeepEqual(job, &want.Job) {
			t.Fatalf("values differ on %q:\n scanner: %+v\n  oracle: %+v", data, job, want.Job)
		}
		std := marshalWire(t, job)
		if app := AppendJob(nil, job, nil); !bytes.Equal(app, std) {
			t.Fatalf("encoder divergence:\n append %s\n stdlib %s", app, std)
		}
	})
}

// withFormat opens a seed object with "format":2, so mutations of the
// scanner's edge cases get past the format check to the list decoder.
func withFormat(seed string) string {
	i := strings.IndexByte(seed, '{')
	if i < 0 || strings.TrimSpace(seed[:i]) != "" {
		return seed
	}
	return seed[:i+1] + `"format":2,` + seed[i+1:]
}

// FuzzJobRoundTrip: any job whose lists are strictly ascending — nil,
// empty, 0 and 2^32-1 included — comes back from AppendJob → DecodeJob
// deeply equal. raw supplies the identifiers, four bytes each (a short
// tail byte by byte), dealt round-robin to the lists; shape picks the
// number of candidates and which empty lists are nil.
func FuzzJobRoundTrip(f *testing.F) {
	f.Add(uint32(0), uint64(0), uint64(0), uint8(0), []byte{})
	f.Add(uint32(42), uint64(3), uint64(77), uint8(0x0f), []byte{1, 2, 3})
	f.Add(uint32(1<<32-1), uint64(1<<64-1), uint64(1<<64-1), uint8(0x03),
		[]byte{0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 1, 0, 0, 0, 0xfe, 0xff, 0xff, 0xff, 2, 0, 0, 0})
	f.Add(uint32(7), uint64(1), uint64(0), uint8(0x05), bytes.Repeat([]byte{9, 0, 1, 0, 10, 0, 1, 0}, 40))
	f.Fuzz(func(t *testing.T, uid uint32, epoch, lease uint64, shape uint8, raw []byte) {
		var ids []uint32
		for len(raw) >= 4 {
			ids = append(ids, binary.LittleEndian.Uint32(raw))
			raw = raw[4:]
		}
		for _, b := range raw {
			ids = append(ids, uint32(b))
		}
		lists := make([][]uint32, 2+2*int(shape&3))
		for i, id := range ids {
			lists[i%len(lists)] = append(lists[i%len(lists)], id)
		}
		for i, l := range lists {
			slices.Sort(l)
			l = slices.Compact(l)
			switch {
			case len(l) > 0:
			case i%2 == 1: // an empty dislike list is omitted, so decodes nil
				l = nil
			case shape&4 != 0:
				l = nil
			default:
				l = []uint32{}
			}
			lists[i] = l
		}
		j := &Job{UID: uid, Epoch: epoch, K: int(shape), R: 3, Lease: lease,
			Profile: ProfileMsg{ID: uid, Liked: lists[0], Disliked: lists[1]}}
		if lists := lists[2:]; len(lists) > 0 || shape&8 == 0 {
			j.Candidates = []ProfileMsg{}
			for i := 0; i < len(lists); i += 2 {
				j.Candidates = append(j.Candidates, ProfileMsg{ID: uid ^ uint32(i), Liked: lists[i], Disliked: lists[i+1]})
			}
		}
		data := AppendJob(nil, j, nil)
		back, err := DecodeJob(data)
		if err != nil {
			t.Fatalf("decode %s: %v", data, err)
		}
		if !reflect.DeepEqual(back, j) {
			t.Fatalf("round trip changed the job:\n sent %+v\n  got %+v\n wire %s", j, back, data)
		}
	})
}

// FuzzDecodeWSClientMsg: the worker socket's inbound message, on the
// same reader. The oracle applies the same post-decode validation.
func FuzzDecodeWSClientMsg(f *testing.F) {
	f.Add([]byte(`{"want":1}`))
	f.Add([]byte(`{"ack":{"lease":77,"done":true}}`))
	f.Add([]byte(`{"result":{"uid":7,"epoch":2,"lease":77,"neighbors":[1,2],"recs":[9]}}`))
	f.Add([]byte(`{"want":2,"ack":{"lease":1,"done":false},"result":{"uid":1,"epoch":1,"neighbors":[],"recs":null}}`))
	f.Add([]byte(`{"ack":{"lease":0}}`))
	f.Add([]byte(`{}`))
	for _, seed := range scannerEdgeSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeWSClientMsg(data)
		var want WSClientMsg
		oerr := json.Unmarshal(data, &want)
		valid := oerr == nil && len(data) <= MaxBodyBytes && want.Want >= 0 &&
			(want.Want != 0 || want.Ack != nil || want.Result != nil) &&
			(want.Ack == nil || want.Ack.Lease != 0)
		if (err == nil) != valid {
			t.Fatalf("accept/reject disagree on %q:\n scanner: %v\n  oracle: %v (valid=%v)", data, err, oerr, valid)
		}
		if err == nil && !reflect.DeepEqual(got, &want) {
			t.Fatalf("values differ on %q:\n scanner: %+v\n  oracle: %+v", data, got, want)
		}
	})
}
