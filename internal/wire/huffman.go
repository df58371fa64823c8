package wire

import (
	"encoding/binary"
	"hash/crc32"
	"math/bits"
	"slices"
)

// This file implements the spliced path's fallback for bodies that
// splicing cannot shrink: a gzip member holding one final deflate block
// coded with a fixed literal code for the job JSON alphabet. The code is
// built once, so encoding is a table lookup and a shift per byte: no
// match search and no per-payload histogram or table construction, which
// are what make compress/flate cost 9–14 µs even on a 250-byte body
// (Go 1.24, x86-64; HuffmanOnly and BestSpeed).
// Digits and commas, most of a job, take 4 bits each, so a job ships at
// a little over half its JSON size plus a ~30-byte code table.

// jsonCode is the fixed code and the block header that transmits it.
var jsonCode = newJSONCode()

// noCode marks a byte outside the job JSON alphabet in huffCode.entries.
const noCode = 1 << 31

type huffCode struct {
	// entries holds each symbol's code, LSB-first as deflate packs it,
	// shifted left 8 bits over its length; noCode for bytes the code
	// does not cover.
	entries [257]uint32
	// header is the block header (BFINAL, BTYPE=dynamic, the code
	// tables), headerBits its length in bits; the last byte is partial.
	header     []byte
	headerBits uint
}

// jsonCodeLengths assigns code lengths to the bytes a job's JSON is
// made of: 4 bits for digits and the comma, 6 for JSON punctuation, 7
// for the letters of the job's keys and end-of-block — the most frequent
// letters shortened to 6 bits until the code is complete, as deflate
// decoders require. No code is longer than 9 bits, the longest Go's
// inflater decodes without allocating overflow tables.
func jsonCodeLengths() (lens [257]uint8) {
	for c := '0'; c <= '9'; c++ {
		lens[c] = 4
	}
	lens[','] = 4
	for _, c := range `[]{}":` {
		lens[c] = 6
	}
	for _, c := range "_acdefhiklmnoprstu" {
		lens[c] = 7
	}
	lens[256] = 7 // end of block
	// Kraft sum in units of 2^-7; a complete code sums to exactly 1<<7.
	sum := 0
	for _, l := range lens {
		if l > 0 {
			sum += 1 << (7 - l)
		}
	}
	for _, c := range "idlkesnac" {
		if sum < 1<<7 {
			lens[c] = 6
			sum++
		}
	}
	if sum != 1<<7 {
		panic("wire: JSON Huffman code is not complete")
	}
	return lens
}

// clOrder is the order code-length code lengths are transmitted in
// (RFC 1951 §3.2.7).
var clOrder = [19]int{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// clLens is the code-length code: 3 bits each for the eight symbols the
// header uses — the literal code's lengths 0, 4, 6 and 7, 1 for the two
// unused distance codes, and the run-length symbols 16 (repeat the
// previous length 3–6 times), 17 (3–10 zeros) and 18 (11–138 zeros).
var clLens = [19]uint8{0: 3, 1: 3, 4: 3, 6: 3, 7: 3, 16: 3, 17: 3, 18: 3}

func newJSONCode() *huffCode {
	lens := jsonCodeLengths()
	h := &huffCode{}
	for s, c := range canonicalCodes(lens[:]) {
		h.entries[s] = uint32(c)<<8 | uint32(lens[s])
		if lens[s] == 0 {
			h.entries[s] = noCode
		}
	}

	clCodes := canonicalCodes(clLens[:])
	var w bitWriter
	sym := func(s uint8) {
		if clLens[s] == 0 {
			panic("wire: JSON Huffman code length has no code-length symbol")
		}
		w.put(uint64(clCodes[s]), uint(clLens[s]))
	}
	w.put(1, 1) // BFINAL
	w.put(2, 2) // BTYPE = dynamic Huffman
	w.put(0, 5) // HLIT: 257 literal/length codes
	w.put(1, 5) // HDIST: 2 distance codes
	n := len(clOrder)
	for clLens[clOrder[n-1]] == 0 {
		n--
	}
	w.put(uint64(n-4), 4)
	for _, s := range clOrder[:n] {
		w.put(uint64(clLens[s]), 3)
	}
	// The 257 literal/length lengths, then two distance lengths of 1 (a
	// complete code nothing uses), run-length coded.
	seq := append(lens[:], 1, 1)
	for i := 0; i < len(seq); {
		l := seq[i]
		run := 1
		for i+run < len(seq) && seq[i+run] == l {
			run++
		}
		switch {
		case l == 0 && run >= 11:
			run = min(run, 138)
			sym(18)
			w.put(uint64(run-11), 7)
		case l == 0 && run >= 3:
			run = min(run, 10)
			sym(17)
			w.put(uint64(run-3), 3)
		case run >= 4:
			// The length once, then symbol 16 repeating it 3–6 times.
			run = 1 + min(run-1, 6)
			sym(l)
			sym(16)
			w.put(uint64(run-4), 2)
		default:
			run = 1
			sym(l)
		}
		i += run
	}
	h.header, h.headerBits = w.b, w.total
	if w.n > 0 {
		h.header = append(h.header, byte(w.acc))
	}
	return h
}

// canonicalCodes assigns deflate's canonical codes to lens (RFC 1951
// §3.2.2), bit-reversed for LSB-first packing. Zero lengths get no code.
func canonicalCodes(lens []uint8) [257]uint16 {
	var count, next [16]uint16
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	code := uint16(0)
	for l := 1; l < 16; l++ {
		code = (code + count[l-1]) << 1
		next[l] = code
	}
	var codes [257]uint16
	for s, l := range lens {
		if l > 0 {
			codes[s] = bits.Reverse16(next[l]) >> (16 - l)
			next[l]++
		}
	}
	return codes
}

// bitWriter packs deflate's LSB-first bit stream.
type bitWriter struct {
	b     []byte
	acc   uint64
	n     uint // bits pending in acc
	total uint // bits written overall
}

func (w *bitWriter) put(v uint64, n uint) {
	w.acc |= v << w.n
	w.n += n
	w.total += n
	for w.n >= 8 {
		w.b = append(w.b, byte(w.acc))
		w.acc >>= 8
		w.n -= 8
	}
}

// AppendGzipHuffman appends a gzip member of body coded as one deflate
// block with the fixed JSON code (see jsonCode); level only sets the
// header's XFL byte, as in AppendGzipHeader. Job JSON comes out at a
// little over half its size plus ~50 bytes of framing. A body with a
// byte outside the code's alphabet is sent as stored blocks instead, so
// any body round-trips.
func AppendGzipHuffman(dst, body []byte, level GzipLevel) []byte {
	start := len(dst)
	h := jsonCode
	// Room for the worst case (7 bits a byte) plus a word of slack for
	// the last store, so the loop stores whole words without growing.
	dst = slices.Grow(AppendGzipHeader(dst, level), len(h.header)+len(body)+16)
	full := int(h.headerBits / 8)
	dst = append(dst, h.header[:full]...)
	out := dst[len(dst):cap(dst)]
	// The header's partial last byte seeds the accumulator. After each
	// store every whole byte is written, so at most 7 bits carry over.
	acc, n := uint64(0), h.headerBits%8
	if n > 0 {
		acc = uint64(h.header[full])
	}
	pos := 0
	var missing uint32
	// Eight symbols (at most 56 bits) per store: their codes are
	// combined independently of the accumulator, which keeps the serial
	// chain through acc and n to one step per eight bytes. The &63 masks
	// tell the compiler no shift reaches 64 bits.
	rest := body
	for ; len(rest) >= 8; rest = rest[8:] {
		e0, e1, e2, e3 := h.entries[rest[0]], h.entries[rest[1]], h.entries[rest[2]], h.entries[rest[3]]
		e4, e5, e6, e7 := h.entries[rest[4]], h.entries[rest[5]], h.entries[rest[6]], h.entries[rest[7]]
		missing |= e0 | e1 | e2 | e3 | e4 | e5 | e6 | e7
		// Pairs, then quads, then the eight: a tree of depth three
		// instead of a chain of eight dependent shifts.
		c01, l01 := join(e0, e1)
		c23, l23 := join(e2, e3)
		c45, l45 := join(e4, e5)
		c67, l67 := join(e6, e7)
		c03, l03 := c01|c23<<(l01&63), l01+l23
		c47, l47 := c45|c67<<(l45&63), l45+l67
		acc |= (c03 | c47<<(l03&63)) << (n & 63)
		n += uint(l03 + l47)
		binary.LittleEndian.PutUint64(out[pos:], acc)
		pos += int(n / 8)
		acc >>= (n &^ 7) & 63
		n &= 7
	}
	// The tail and the end-of-block code: at most eight more codes, which
	// with the carried bits still fit the accumulator.
	for _, c := range rest {
		e := h.entries[c]
		missing |= e
		acc |= uint64(e>>8) << (n & 63)
		n += uint(e & 0xff)
	}
	if missing&noCode != 0 {
		dst = AppendStoredBytes(AppendGzipHeader(dst[:start], level), body)
		return AppendGzipTrailer(dst, body)
	}
	acc |= uint64(h.entries[256]>>8) << (n & 63)
	n += uint(h.entries[256] & 0xff)
	binary.LittleEndian.PutUint64(out[pos:], acc)
	pos += int(n+7) / 8
	dst = dst[:len(dst)+pos]
	crc, size := crc32.ChecksumIEEE(body), uint32(len(body))
	return append(dst,
		byte(crc), byte(crc>>8), byte(crc>>16), byte(crc>>24),
		byte(size), byte(size>>8), byte(size>>16), byte(size>>24))
}

// join concatenates the codes of two entries, returning the bit string
// and its length.
func join(a, b uint32) (uint64, uint32) {
	la := a & 0xff
	return uint64(a>>8) | uint64(b>>8)<<(la&63), la + b&0xff
}
