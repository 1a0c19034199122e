package imgproc

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// drawCode draws the 16 code-length counts and the values of a DHT
// segment. A third are complete prefix codes, grown by splitting random
// leaves (often the newest, so codes up to 16 bits are common), a third
// are such codes with some codes dropped (incomplete) and a third have
// codes added (usually over-subscribed). DC values are sizes 0–17 (over
// 16 is an error); AC values favour the end-of-block and 16-zero-run
// symbols, and include end-of-band runs.
func drawCode(rng *rand.Rand, ac bool) (counts [maxCodeLength]uint8, vals []byte) {
	depths := []int{0}
	for want := 2 + rng.Intn(40); len(depths) < want; {
		i := len(depths) - 1
		if rng.Intn(2) == 0 {
			i = rng.Intn(len(depths))
		}
		if depths[i] == maxCodeLength {
			continue
		}
		depths[i]++
		depths = append(depths, depths[i])
	}
	switch rng.Intn(3) {
	case 1:
		rng.Shuffle(len(depths), func(i, j int) { depths[i], depths[j] = depths[j], depths[i] })
		depths = depths[:1+rng.Intn(len(depths))]
	case 2:
		for range 1 + rng.Intn(8) {
			depths = append(depths, 1+rng.Intn(maxCodeLength))
		}
	}
	for _, dep := range depths {
		counts[dep-1]++
	}
	for range depths {
		var v byte
		switch {
		case !ac:
			v = byte(rng.Intn(12))
			if rng.Intn(8) == 0 {
				v = byte(rng.Intn(18))
			}
		case rng.Intn(6) == 0:
			v = 0x00 // end of block
		case rng.Intn(10) == 0:
			v = 0xf0 // 16 zeros
		case rng.Intn(30) == 0:
			v = byte(1+rng.Intn(14)) << 4 // an end-of-band run
		default:
			v = byte(rng.Intn(16))<<4 | byte(1+rng.Intn(10))
		}
		vals = append(vals, v)
	}
	return counts, vals
}

// overSubscribed reports whether the Kraft sum of counts, Σ n_l·2^−l,
// exceeds 1.
func overSubscribed(counts [maxCodeLength]uint8) bool {
	sum := 0
	for i, n := range counts {
		sum += int(n) << (maxCodeLength - 1 - i)
	}
	return sum > 1<<maxCodeLength
}

// entropySegment draws n bytes of entropy-coded data: random bytes,
// a 0xFF stuffed as 0xFF00 where one is drawn, and sometimes a restart
// or EOI marker at a random place or an end of data inside what a
// block would read.
func entropySegment(rng *rand.Rand, n int) []byte {
	var out []byte
	for range n {
		c := byte(rng.Intn(256))
		if rng.Intn(16) == 0 {
			c = 0xff
		}
		out = append(out, c)
		if c == 0xff {
			out = append(out, 0x00)
		}
	}
	if rng.Intn(3) == 0 {
		at := rng.Intn(len(out) + 1)
		marker := []byte{0xff, byte(rst0Marker + rng.Intn(8))}
		if rng.Intn(2) == 0 {
			marker[1] = eoiMarker
		}
		out = append(out[:at:at], append(marker, out[at:]...)...)
	}
	return out
}

// checkHuffmanSeed builds a DC and an AC table from the seed through
// processDHT and checks the fast path against decodeHuffman,
// receiveExtend and decodeBlock, the canonical decode:
//
//   - lookups: a table gets fast lookups exactly when its code is a
//     prefix code. Then, for random 64-bit strings, the 9-bit lookup or
//     the long-code walk (decodeLong) returns decodeHuffman's value and
//     bit count, or misses where it fails; a non-zero combined AC entry
//     holds the run, the extended coefficient and the bits that
//     decodeHuffman and receiveExtend return and consume, and a zero
//     one stands for a symbol of size 0 or one over 9 bits.
//   - blocks, when both codes are prefix codes: over a drawn segment
//     with stuffing, markers and truncation, each block that
//     decodeBlockFast decodes equals decodeBlock's from the same state
//     (coefficients, nz, DC predictor, and d.i, d.nUnreadable, the
//     unread bits and eobRun after it), and one it declines leaves the
//     state as it was.
//
// It returns how many blocks went each way.
func checkHuffmanSeed(t *testing.T, seed int64) (fast, declined int) {
	rng := rand.New(rand.NewSource(seed))
	d := new(decoder)
	for tc := range maxTc + 1 {
		counts, vals := drawCode(rng, tc == acTable)
		seg := append(append([]byte{byte(tc << 4)}, counts[:]...), vals...)
		d.decodeState = decodeState{data: seg}
		if err := d.processDHT(len(seg)); err != nil {
			t.Fatalf("seed %d: DHT %v %v: %v", seed, counts, vals, err)
		}
		h := &d.huff[tc][0]
		if h.prefix == overSubscribed(counts) {
			t.Fatalf("seed %d: counts %v: prefix = %v", seed, counts, h.prefix)
		}
		if !h.prefix {
			continue
		}
		for range 64 {
			var w [8]byte
			for i := range w {
				w[i] = byte(rng.Intn(0xff)) // no 0xFF, so no stuffing
			}
			acc := binary.BigEndian.Uint64(w[:])
			d.decodeState = decodeState{data: w[:]}
			value, err := d.decodeHuffman(h)
			used := 8*d.i - int(d.bits.n)
			v := h.fast[acc>>(64-fastBits)]
			fv, fl, ok := uint8(v>>8), uint(v&0xff), v != 0
			if !ok {
				fv, fl, ok = h.decodeLong(acc)
			}
			if err != nil {
				if ok {
					t.Fatalf("seed %d: bits %016x: decodeHuffman fails (%v), the fast lookup gives %#x", seed, acc, err, fv)
				}
				continue
			}
			if !ok || fv != value || int(fl) != used {
				t.Fatalf("seed %d: bits %016x: decodeHuffman gives %#x in %d bits, the fast lookup %#x in %d (ok %v)", seed, acc, value, used, fv, fl, ok)
			}
			if tc != acTable {
				continue
			}
			size := value & 0x0f
			coef, err := d.receiveExtend(size)
			if err != nil {
				t.Fatal(err)
			}
			used = 8*d.i - int(d.bits.n)
			e := h.fastAC[acc>>(64-fastBits)]
			switch {
			case e == 0 && size != 0 && used <= fastBits:
				t.Fatalf("seed %d: bits %016x: no combined entry for %#x, %d bits in all", seed, acc, value, used)
			case e != 0 && (e>>8 != coef || uint8(e>>4&0x0f) != value>>4 || int(e&0x0f) != used):
				t.Fatalf("seed %d: bits %016x: combined entry %#x, want coefficient %d, run %d, %d bits", seed, acc, e, coef, value>>4, used)
			}
		}
	}
	dcH, acH := &d.huff[dcTable][0], &d.huff[acTable][0]
	if !dcH.prefix || !acH.prefix {
		return 0, 0
	}
	d.decodeState = decodeState{data: entropySegment(rng, 8+rng.Intn(400))}
	var dc int32
	for range 64 {
		before := d.decodeState
		var fb, sb block
		fdc, sdc := dc, dc
		fnz, ok := 0, false
		if d.eobRun == 0 { // as processSOS asks
			fnz, ok = d.decodeBlockFast(&fb, &fdc, dcH, acH)
		}
		after := d.decodeState
		d.decodeState = before
		snz, err := d.decodeBlock(&sb, &sdc, dcH, acH, 0, blockSize-1, 0)
		if !ok {
			declined++
			if after.i != before.i || after.nUnreadable != before.nUnreadable || after.bits != before.bits || fdc != dc {
				t.Fatalf("seed %d: a declined block moved the state: %+v → %+v, dc %d → %d", seed, before.bits, after.bits, dc, fdc)
			}
		} else {
			fast++
			mask := uint32(1)<<d.bits.n - 1
			switch {
			case err != nil:
				t.Fatalf("seed %d: the fast path decoded a block decodeBlock fails on: %v", seed, err)
			case fb != sb || fnz != snz || fdc != sdc:
				t.Fatalf("seed %d: fast block nz %d dc %d %v\nslow block nz %d dc %d %v", seed, fnz, fdc, fb, snz, sdc, sb)
			case after.i != d.i || after.nUnreadable != d.nUnreadable || after.eobRun != d.eobRun ||
				after.bits.n != d.bits.n || after.bits.m != d.bits.m || after.bits.a&mask != d.bits.a&mask:
				t.Fatalf("seed %d: after a block the fast path leaves i %d, unreadable %d, bits %+v; decodeBlock i %d, unreadable %d, bits %+v",
					seed, after.i, after.nUnreadable, after.bits, d.i, d.nUnreadable, d.bits)
			}
		}
		if err != nil {
			break
		}
		dc = sdc
	}
	return fast, declined
}

// FuzzHuffmanLookupMatchesCanonical runs checkHuffmanSeed: the entropy
// fast path's lookups and block decoder against the canonical decode,
// over drawn codes (complete, incomplete, over-subscribed, lengths up
// to 16) and bit strings.
func FuzzHuffmanLookupMatchesCanonical(f *testing.F) {
	for seed := range int64(16) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { checkHuffmanSeed(t, seed) })
}

// TestHuffmanCheckTakesBothPaths: over the first 256 seeds the block
// check sees the fast path decode blocks and decline others, so neither
// half of the comparison is vacuous.
func TestHuffmanCheckTakesBothPaths(t *testing.T) {
	var fast, declined int
	for seed := range int64(256) {
		f, d := checkHuffmanSeed(t, seed)
		fast += f
		declined += d
	}
	if fast < 100 || declined < 100 {
		t.Errorf("the fast path took %d blocks and declined %d, want ≥ 100 each", fast, declined)
	}
	t.Logf("fast %d, declined %d", fast, declined)
}
