package jpegdec

import "fmt"

// huffTable is a canonical JPEG Huffman table decoded via the standard
// min/max-code-per-length walk. The walk is the serial dependency the
// paper's argument rests on: the decoder cannot know where symbol k+1
// starts until symbol k's length is known.
type huffTable struct {
	minCode [17]int32 // per code length 1..16
	maxCode [17]int32 // -1 where no codes of that length exist
	valPtr  [17]int32
	symbols []byte
}

// init (re)builds the table in place, reusing the symbols buffer's
// capacity so a reusable Decoder parses DHT segments allocation-free in
// steady state.
func (t *huffTable) init(counts [16]int, symbols []byte) error {
	t.valPtr = [17]int32{}
	t.symbols = append(t.symbols[:0], symbols...)
	code := int32(0)
	k := int32(0)
	for l := 1; l <= 16; l++ {
		if counts[l-1] == 0 {
			t.minCode[l] = 0
			t.maxCode[l] = -1
		} else {
			t.valPtr[l] = k
			t.minCode[l] = code
			code += int32(counts[l-1])
			k += int32(counts[l-1])
			t.maxCode[l] = code - 1
		}
		code <<= 1
	}
	if int(k) != len(symbols) {
		return fmt.Errorf("jpegdec: huffman counts/symbols mismatch: %d vs %d", k, len(symbols))
	}
	return nil
}

// bitReader reads the entropy-coded stream with JPEG byte stuffing
// (0xFF 0x00 → literal 0xFF) and stops at markers.
type bitReader struct {
	data []byte
	pos  int
	acc  uint32
	n    int // bits in acc
}

// errMarker signals that a marker interrupted the bit stream.
var errMarker = fmt.Errorf("jpegdec: marker in entropy stream")

func (r *bitReader) bit() (int32, error) {
	if r.n == 0 {
		if r.pos >= len(r.data) {
			return 0, fmt.Errorf("jpegdec: entropy stream exhausted")
		}
		b := r.data[r.pos]
		r.pos++
		if b == 0xFF {
			if r.pos >= len(r.data) {
				return 0, fmt.Errorf("jpegdec: dangling 0xFF")
			}
			next := r.data[r.pos]
			if next == 0x00 {
				r.pos++ // stuffed byte
			} else {
				r.pos-- // leave the marker in place
				return 0, errMarker
			}
		}
		r.acc = uint32(b)
		r.n = 8
	}
	r.n--
	return int32(r.acc>>uint(r.n)) & 1, nil
}

// bits reads n bits MSB-first.
func (r *bitReader) bits(n int) (int32, error) {
	var v int32
	for i := 0; i < n; i++ {
		b, err := r.bit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | b
	}
	return v, nil
}

// align discards partial-byte bits (used at restart markers).
func (r *bitReader) align() { r.n = 0 }

// decodeSymbol walks the canonical table one bit at a time.
func (r *bitReader) decodeSymbol(t *huffTable) (byte, error) {
	if t == nil {
		return 0, fmt.Errorf("jpegdec: missing huffman table")
	}
	code := int32(0)
	for l := 1; l <= 16; l++ {
		b, err := r.bit()
		if err != nil {
			return 0, err
		}
		code = code<<1 | b
		if t.maxCode[l] >= 0 && code <= t.maxCode[l] {
			idx := t.valPtr[l] + code - t.minCode[l]
			if int(idx) >= len(t.symbols) {
				return 0, fmt.Errorf("jpegdec: huffman index out of range")
			}
			return t.symbols[idx], nil
		}
	}
	return 0, fmt.Errorf("jpegdec: invalid huffman code")
}

// extend implements the JPEG EXTEND procedure: a size-s magnitude v
// becomes negative when its top bit is clear.
func extend(v int32, s int) int32 {
	if s == 0 {
		return 0
	}
	if v < 1<<uint(s-1) {
		return v - (1 << uint(s)) + 1
	}
	return v
}
