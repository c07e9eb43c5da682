package rmat

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// TestEdgeStreamPinned locks the generated edge list: an FNV-1a hash of
// edges [0, 2e5) at three scales, scrambled and not, through both EdgeAt
// and Edges. The draw order is part of the graph's identity, so any
// change to it (or to the PRNG, the noise or the scrambler) fails here.
func TestEdgeStreamPinned(t *testing.T) {
	const n = 200000
	cases := []struct {
		scale    int
		scramble bool
		want     uint64
	}{
		{10, true, 0xfbf11420cdb36eb4},
		{10, false, 0x7ad39f827d52895f},
		{14, true, 0x34da389742f77d95},
		{14, false, 0xeefa5939f2c3d44c},
		{18, true, 0xbbf38e7fa2200672},
		{18, false, 0x50791bbc9b954572},
	}
	for _, c := range cases {
		p := Graph500(c.scale).WithScramble(c.scramble)
		var buf [8]byte
		h := fnv.New64a()
		for i := int64(0); i < n; i++ {
			u, v := p.EdgeAt(i)
			binary.LittleEndian.PutUint64(buf[:], uint64(u))
			h.Write(buf[:])
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("scale %d scramble %v: EdgeAt hash %#x, want %#x", c.scale, c.scramble, got, c.want)
		}
		h.Reset()
		for _, x := range p.Edges(nil, 0, n) {
			binary.LittleEndian.PutUint64(buf[:], uint64(x))
			h.Write(buf[:])
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("scale %d scramble %v: Edges hash %#x, want %#x", c.scale, c.scramble, got, c.want)
		}
	}
}
