package collective

import (
	"testing"
	"testing/quick"

	"numabfs/internal/mpi"
	"numabfs/internal/wire"
)

func TestAllgathervInt64(t *testing.T) {
	forEachWire(t, func(t *testing.T, newCodec func() *wire.Codec) {
		w := testWorld(t, 2, 3)
		g := WorldGroup(w)
		n := g.Size()
		w.Run(func(p *mpi.Proc) {
			me := g.Pos(p.Rank())
			mine := make([]int64, me*7) // varied lengths, incl. empty for rank 0
			for i := range mine {
				mine[i] = int64(me*1000 + i*3)
			}
			var out [][]int64
			// Two rounds: the second reuses out, the engine's steady state.
			// Each round gets its own codec: a payload aliases its codec's
			// scratch until every receiver has decoded it.
			for round := 0; round < 2; round++ {
				out = g.AllgathervInt64(p, mine, out, newCodec())
				for src := 0; src < n; src++ {
					if len(out[src]) != src*7 {
						t.Errorf("round %d rank %d: len(out[%d]) = %d, want %d",
							round, me, src, len(out[src]), src*7)
						continue
					}
					for k, v := range out[src] {
						if v != int64(src*1000+k*3) {
							t.Errorf("round %d rank %d: out[%d][%d] = %d", round, me, src, k, v)
							break
						}
					}
				}
			}
		})
	})
}

func TestAllgathervInt64SingleMember(t *testing.T) {
	w := testWorld(t, 1, 1)
	g := WorldGroup(w)
	w.Run(func(p *mpi.Proc) {
		out := g.AllgathervInt64(p, []int64{7, 8}, nil, nil)
		if len(out) != 1 || len(out[0]) != 2 || out[0][1] != 8 {
			t.Errorf("out = %v", out)
		}
	})
}

// Property: for random per-member lengths, everyone sees everyone's
// exact contribution, empty slices included.
func TestAllgathervInt64Property(t *testing.T) {
	f := func(lens [6]uint8) bool {
		w := testWorld(t, 2, 3)
		g := WorldGroup(w)
		ok := true
		w.Run(func(p *mpi.Proc) {
			me := g.Pos(p.Rank())
			mine := make([]int64, int(lens[me]%5))
			for k := range mine {
				mine[k] = int64(me)<<8 | int64(k)
			}
			out := g.AllgathervInt64(p, mine, nil, nil)
			for src := 0; src < g.Size(); src++ {
				if len(out[src]) != int(lens[src]%5) {
					ok = false
					return
				}
				for k, v := range out[src] {
					if v != int64(src)<<8|int64(k) {
						ok = false
						return
					}
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
