package dataprep

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// FuzzSeededSourceMatchesStdlib drives a seededSource and
// rand.NewSource(seed), each behind a rand.Rand, through the same mix
// of Seed, Int63, Uint64, Intn and Float64 calls, and checks every
// value. Each op byte picks the call by its value mod 6 and an
// argument from the rest: Intn's bound, a burst length, or (for Seed)
// the next 8 bytes as the new seed. Every run ends with 1,300 draws,
// past the register fill at draw 274 and twice round the register.
func FuzzSeededSourceMatchesStdlib(f *testing.F) {
	seeds := []int64{
		0, 1, -1, -5, 12345, 89482311, int32max, -int32max, 2 * int32max, int32max - 1,
		1 << 40, -(1 << 62), math.MinInt64, math.MaxInt64,
	}
	reseed := func(seed int64) []byte {
		return binary.LittleEndian.AppendUint64([]byte{4}, uint64(seed))
	}
	for i, seed := range seeds {
		ops := []byte{0, 1, 2, 3, 8, 9, 14, 255, 251, 1}
		ops = append(ops, reseed(seeds[(i+1)%len(seeds)])...)
		ops = append(ops, 245, 2, 3, 0)
		f.Add(seed, ops)
	}
	f.Add(int64(7), reseed(math.MinInt64))
	f.Add(int64(7), append(append([]byte{251, 251}, reseed(3*int32max)...), 251, 1))
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		var src seededSource
		got := rand.New(&src)
		got.Seed(seed)
		want := rand.New(rand.NewSource(seed))
		step := 0
		check := func(name string, g, w any) {
			t.Helper()
			if g != w {
				t.Fatalf("seed %d, call %d (%s): got %v, want %v", seed, step, name, g, w)
			}
			step++
		}
		for len(ops) > 0 {
			op := ops[0]
			ops = ops[1:]
			arg := int(op / 6)
			switch op % 6 {
			case 0:
				check("Int63", got.Int63(), want.Int63())
			case 1:
				check("Uint64", got.Uint64(), want.Uint64())
			case 2:
				n := 1 + arg*arg*arg
				if arg%2 == 1 {
					n <<= 33 // past Int31n: the Int63n path
				}
				check("Intn", got.Intn(n), want.Intn(n))
			case 3:
				check("Float64", got.Float64(), want.Float64())
			case 4:
				var b [8]byte
				ops = ops[copy(b[:], ops):]
				seed = int64(binary.LittleEndian.Uint64(b[:]))
				got.Seed(seed)
				want.Seed(seed)
				step = 0
			case 5:
				for range 8 * arg {
					check("Uint64", got.Uint64(), want.Uint64())
				}
			}
		}
		for range 1300 {
			check("Uint64", got.Uint64(), want.Uint64())
		}
	})
}

// BenchmarkScratchRand times what a prepared image sample spends on
// randomness: reseeding Scratch's source and four draws (crop x and y,
// the mirror coin, the noise stream's seed word). The stdlib leg is
// the same on rand.NewSource's generator.
func BenchmarkScratchRand(b *testing.B) {
	draw4 := func(rng *rand.Rand) uint64 {
		return uint64(rng.Intn(33)+rng.Intn(33)) + uint64(rng.Float64()*2) + rng.Uint64()
	}
	b.Run("seeded", func(b *testing.B) {
		s := NewScratch()
		var sink uint64
		for i := 0; i < b.N; i++ {
			sink += draw4(s.rand(int64(i)))
		}
		_ = sink
	})
	b.Run("stdlib", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		var sink uint64
		for i := 0; i < b.N; i++ {
			rng.Seed(int64(i))
			sink += draw4(rng)
		}
		_ = sink
	})
}
