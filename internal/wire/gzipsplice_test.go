package wire

import (
	"bytes"
	"testing"

	"hyrec/internal/core"
)

// TestGzipSpliceRoundTrip pins the splice contract: a payload assembled
// from deflate fragments and stored-block glue inflates, through the
// ordinary Decompress, to exactly the JSON body it was built alongside.
func TestGzipSpliceRoundTrip(t *testing.T) {
	levels := []GzipLevel{GzipBestSpeed, GzipDefault, GzipBestCompact, GzipHuffmanOnly}
	frags := [][]byte{
		[]byte(`{"id":1,"liked":[1,2,3]}`),
		[]byte(`{"id":2,"liked":[],"disliked":[9,10,11,12,13,14,15,16,17,18]}`),
		{},
		[]byte(`{"id":3,"liked":[100000,100001]}`),
	}
	for _, level := range levels {
		var body []byte
		sp := BeginGzSplice(nil, level, 0)
		body = append(body, `{"uid":7,"candidates":[`...)
		for i, f := range frags {
			if i > 0 {
				body = append(body, ',')
			}
			fgz, err := AppendDeflateFragment(nil, f, level)
			if err != nil {
				t.Fatalf("level %d: deflate fragment: %v", level, err)
			}
			body = append(body, f...)
			sp.Splice(body, len(f), fgz)
		}
		body = append(body, `]}`...)
		gz := sp.Finish(body)

		got, err := Decompress(gz)
		if err != nil {
			t.Fatalf("level %d: decompress spliced payload: %v", level, err)
		}
		if !bytes.Equal(got, body) {
			t.Fatalf("level %d: spliced payload inflates to %q, want %q", level, got, body)
		}
	}
}

// TestGzipSpliceOffsets verifies glue accounting with a non-zero JSON
// start offset (appending after an existing prefix) and with bodies that
// are pure glue (no fragments at all).
func TestGzipSpliceOffsets(t *testing.T) {
	prefix := []byte("irrelevant-prefix")
	body := append([]byte{}, prefix...)
	sp := BeginGzSplice([]byte("gz-prefix"), GzipBestSpeed, len(prefix))
	body = append(body, `{"all":"glue","no":"fragments"}`...)
	gz := sp.Finish(body)
	if !bytes.HasPrefix(gz, []byte("gz-prefix")) {
		t.Fatalf("splicer clobbered the gz destination prefix")
	}
	got, err := Decompress(gz[len("gz-prefix"):])
	if err != nil {
		t.Fatalf("decompress: %v", err)
	}
	if want := body[len(prefix):]; !bytes.Equal(got, want) {
		t.Fatalf("inflated %q, want %q", got, want)
	}
}

// TestGzipSpliceLargeGlue exercises stored-block chunking past the 64 KiB
// stored-block limit.
func TestGzipSpliceLargeGlue(t *testing.T) {
	big := bytes.Repeat([]byte("x9y8z7"), 30000) // 180 KB of glue
	sp := BeginGzSplice(nil, GzipBestSpeed, 0)
	gz := sp.Finish(big)
	got, err := Decompress(gz)
	if err != nil {
		t.Fatalf("decompress: %v", err)
	}
	if !bytes.Equal(got, big) {
		t.Fatalf("large glue did not round-trip (got %d bytes, want %d)", len(got), len(big))
	}
}

// TestFragmentGzMatchesFragment pins FragmentGz's JSON leg to Fragment's
// bytes and its deflate leg to a fragment that inflates back to the JSON.
func TestFragmentGzMatchesFragment(t *testing.T) {
	var c FragmentCell
	p := core.ProfileFromRatings(5, []core.Rating{
		{Item: 1, Liked: true}, {Item: 2, Liked: false}, {Item: 70, Liked: true},
	})
	want := c.Fragment(p, nil)
	data, gz, err := c.FragmentGz(p, nil, GzipBestSpeed)
	if err != nil {
		t.Fatalf("FragmentGz: %v", err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("FragmentGz JSON leg %q != Fragment %q", data, want)
	}
	// The deflate leg, wrapped in a header/trailer, inflates to the JSON.
	full := AppendGzipHeader(nil, GzipBestSpeed)
	full = append(full, gz...)
	full = AppendGzipTrailer(full, data)
	got, err := Decompress(full)
	if err != nil {
		t.Fatalf("decompress fragment: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("fragment inflates to %q, want %q", got, data)
	}
	// Cached: a second call returns the identical slices.
	data2, gz2, err := c.FragmentGz(p, nil, GzipBestSpeed)
	if err != nil {
		t.Fatalf("FragmentGz (cached): %v", err)
	}
	if &data2[0] != &data[0] || &gz2[0] != &gz[0] {
		t.Fatalf("FragmentGz did not serve the cached fragment on hit")
	}
}
