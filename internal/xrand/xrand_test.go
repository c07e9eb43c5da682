package xrand

import (
	"testing"
	"testing/quick"
)

func TestSplitMix64PinnedValues(t *testing.T) {
	// Pinned outputs for seed 1234567: any change to the mixing
	// constants silently reshuffles every generated graph, so the stream
	// is locked here.
	s := NewSplitMix64(1234567)
	want := []uint64{0x599ed017fb08fc85, 0x2c73f08458540fa5, 0x883ebce5a3f27c77}
	for i, w := range want {
		if got := s.Uint64(); got != w {
			t.Fatalf("value %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestSplitMix64Deterministic(t *testing.T) {
	a, b := NewSplitMix64(42), NewSplitMix64(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestXoshiroDeterministicAndSeedSensitive(t *testing.T) {
	a, b := NewXoshiro256(7), NewXoshiro256(7)
	c := NewXoshiro256(8)
	same, diff := true, false
	for i := 0; i < 64; i++ {
		av := a.Uint64()
		if av != b.Uint64() {
			same = false
		}
		if av != c.Uint64() {
			diff = true
		}
	}
	if !same {
		t.Fatal("same seed diverged")
	}
	if !diff {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestFloat64Range(t *testing.T) {
	x := NewXoshiro256(99)
	for i := 0; i < 10000; i++ {
		f := x.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %g out of [0,1)", f)
		}
	}
}

func TestUint64nBounds(t *testing.T) {
	x := NewXoshiro256(3)
	for _, n := range []uint64{1, 2, 3, 7, 64, 1000, 1 << 40} {
		for i := 0; i < 1000; i++ {
			if v := x.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d", n, v)
			}
		}
	}
}

func TestUint64nZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewXoshiro256(1).Uint64n(0)
}

func TestUint64nRoughlyUniform(t *testing.T) {
	x := NewXoshiro256(5)
	const n, iters = 10, 100000
	var counts [n]int
	for i := 0; i < iters; i++ {
		counts[x.Uint64n(n)]++
	}
	for b, c := range counts {
		if c < iters/n*8/10 || c > iters/n*12/10 {
			t.Fatalf("bucket %d has %d of %d draws", b, c, iters)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, nSmall uint8) bool {
		n := int64(nSmall%64) + 1
		p := NewXoshiro256(seed).Perm(n)
		if int64(len(p)) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestInt63NonNegative(t *testing.T) {
	x := NewXoshiro256(11)
	for i := 0; i < 10000; i++ {
		if x.Int63() < 0 {
			t.Fatal("Int63 returned negative")
		}
	}
}

func TestXoshiro256PinnedValues(t *testing.T) {
	// Pinned outputs for two seeds: R-MAT draws every edge from this
	// stream, so a change to the state update or the output scrambler
	// silently regenerates every graph.
	want := map[uint64][8]uint64{
		1: {
			0xb3f2af6d0fc710c5, 0x853b559647364cea, 0x92f89756082a4514, 0x642e1c7bc266a3a7,
			0xb27a48e29a233673, 0x24c123126ffda722, 0x123004ef8df510e6, 0x61954dcc47b1e89d,
		},
		20120924: {
			0x729f7da218587bfb, 0xd39624095eefaaf5, 0x596a2e17a98931c9, 0xfd149aa13cfdc4ed,
			0xcb11d752b0c2381d, 0xd2993fbccd57b806, 0xfc2a1ca8d2761440, 0xeea7ae7e120f1cf0,
		},
	}
	for seed, vals := range want {
		x := NewXoshiro256(seed)
		for i, w := range vals {
			if got := x.Uint64(); got != w {
				t.Fatalf("seed %d value %d = %#x, want %#x", seed, i, got, w)
			}
		}
	}
}
