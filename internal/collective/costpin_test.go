package collective

import (
	"testing"

	"numabfs/internal/mpi"
	"numabfs/internal/wire"
)

// pinVec is rank me's vector for peer j in the pinned exchanges: a mix
// of nil, empty and short non-empty vectors.
func pinVec(me, j int) []int64 {
	n := (me + 2*j) % 4
	if n == 0 {
		if (me+j)%2 == 0 {
			return nil
		}
		return []int64{}
	}
	v := make([]int64, n*3)
	for k := range v {
		v[k] = int64(me*1000 + j*10 + k*7)
	}
	return v
}

// costPin is one collective's modelled cost on the fixed 2×4 world:
// every rank's final virtual clock and the network's wire and raw byte
// counters (intra wire, inter wire, intra raw, inter raw).
type costPin struct {
	name   string
	clocks []float64
	bytes  [4]int64
}

// costPins are the modelled costs each collective must reproduce bit
// for bit on both wires: every figure the bench-check gate pins is built
// on them, so a drift here is a drift there.
var costPins = []costPin{
	{"ring", []float64{14689.230769230771, 13254.769230769232, 13257.846153846154, 14692.307692307693, 14692.307692307693, 13257.846153846154, 13256.769230769232, 14689.230769230771}, [4]int64{10800, 3592, 10800, 3592}},
	{"parallel", []float64{3509.3333333333335, 3509.3333333333335, 3509.3333333333335, 3509.3333333333335, 3509.3333333333335, 3509.3333333333335, 3509.3333333333335, 3509.3333333333335}, [4]int64{0, 5120, 0, 5120}},
	{"inplace", []float64{4659.2, 4659.2, 4659.2, 4659.2, 4659.2, 4659.2, 4659.2, 4659.2}, [4]int64{0, 5152, 0, 5152}},
	{"alltoallv", []float64{14147.692307692309, 12733.23076923077, 12741.23076923077, 14147.692307692309, 14147.692307692309, 12733.23076923077, 12741.23076923077, 14147.692307692309}, [4]int64{864, 1152, 864, 1152}},
	{"allgatherv", []float64{14092.307692307691, 12683.076923076922, 12695.076923076922, 14092.307692307691, 14092.307692307691, 12683.076923076922, 12695.076923076922, 14092.307692307691}, [4]int64{1536, 480, 1536, 480}},
	{"ring-comp", []float64{14478.914895411608, 13108.584204903285, 13086.273532388666, 14481.031854475936, 14479.445231668918, 13109.114541160596, 13085.743196131356, 14481.031854475936}, [4]int64{4086, 1626, 10800, 3592}},
	{"parallel-comp", []float64{3552.1602339181286, 3552.1602339181286, 3552.1602339181286, 3552.1602339181286, 3552.1602339181286, 3552.1602339181286, 3552.1602339181286, 3552.1602339181286}, [4]int64{0, 1992, 0, 5120}},
	{"inplace-comp", []float64{4702.557236842105, 4702.557236842105, 4702.557236842105, 4702.557236842105, 4702.557236842105, 4702.557236842105, 4702.557236842105, 4702.557236842105}, [4]int64{0, 2008, 0, 5152}},
	{"alltoallv-comp", []float64{14085.542116509223, 12673.252361673416, 12687.545377867746, 14087.052968960865, 14085.099021592443, 12672.809266756636, 12687.988472784526, 14087.496063877645}, [4]int64{172, 231, 864, 1152}},
	{"allgatherv-comp", []float64{14053.46676788124, 12647.634221772378, 12656.87387539361, 14054.977620332882, 14053.02367296446, 12647.1911268556, 12657.066970310389, 14055.362235717497}, [4]int64{302, 97, 1536, 480}},
}

// pinnedCollectives runs each merged collective once per rank with codec
// c (nil = raw wire). The raw entry points are called for a nil codec so
// their one-line wrappers are pinned too.
var pinnedCollectives = []struct {
	name string
	run  func(p *mpi.Proc, g *Group, nc *NodeComm, c *wire.Codec)
}{
	{"ring", func(p *mpi.Proc, g *Group, nc *NodeComm, c *wire.Codec) {
		l := EvenLayout(257, g.Size())
		buf := make([]uint64, 257)
		fillVaried(buf, l, g.Pos(p.Rank()))
		if c == nil {
			g.AllgatherRing(p, buf, l)
			return
		}
		g.AllgatherRingCompressed(p, buf, l, c)
	}},
	{"parallel", func(p *mpi.Proc, g *Group, nc *NodeComm, c *wire.Codec) {
		l := EvenLayout(640, g.Size())
		shared := p.SharedWords("inq", 640)
		seg := make([]uint64, l.Counts[p.Rank()])
		for i := range seg {
			seg[i] = variedWord(p.Rank(), i)
		}
		if c == nil {
			nc.ParallelAllgather(p, shared, seg, l)
			return
		}
		nc.ParallelAllgatherCompressed(p, shared, seg, l, c)
	}},
	{"inplace", func(p *mpi.Proc, g *Group, nc *NodeComm, c *wire.Codec) {
		l := EvenLayout(644, g.Size())
		shared := p.SharedWords("inq", 644)
		fillVaried(shared, l, p.Rank())
		p.NodeBarrier()
		nc.ParallelAllgatherInPlace(p, shared, l, c)
	}},
	{"alltoallv", func(p *mpi.Proc, g *Group, nc *NodeComm, c *wire.Codec) {
		me := g.Pos(p.Rank())
		send := make([][]int64, g.Size())
		for j := range send {
			send[j] = pinVec(me, j)
		}
		if c == nil {
			g.AlltoallvInt64(p, send)
			return
		}
		g.AlltoallvInt64Compressed(p, send, nil, c)
	}},
	{"allgatherv", func(p *mpi.Proc, g *Group, nc *NodeComm, c *wire.Codec) {
		me := g.Pos(p.Rank())
		g.AllgathervInt64(p, pinVec(me, me+1), nil, c)
	}},
}

func TestCollectiveCostPins(t *testing.T) {
	want := make(map[string]costPin, len(costPins))
	for _, pin := range costPins {
		want[pin.name] = pin
	}
	forEachWire(t, func(t *testing.T, newCodec func() *wire.Codec) {
		for _, pc := range pinnedCollectives {
			name := pc.name
			if newCodec() != nil {
				name += "-comp"
			}
			w := testWorld(t, 2, 4)
			g := WorldGroup(w)
			nc := NewNodeComm(w)
			clocks := make([]float64, w.NumProcs())
			w.Run(func(p *mpi.Proc) {
				pc.run(p, g, nc, newCodec())
				clocks[p.Rank()] = p.Clock()
			})
			pin := want[name]
			for r, c := range clocks {
				if c != pin.clocks[r] {
					t.Errorf("%s: rank %d clock = %v, pinned %v", name, r, c, pin.clocks[r])
				}
			}
			v := w.Net().Volume()
			if got := [4]int64{v.IntraBytes, v.InterBytes, v.RawIntraBytes, v.RawInterBytes}; got != pin.bytes {
				t.Errorf("%s: bytes (intra, inter, raw intra, raw inter) = %v, pinned %v", name, got, pin.bytes)
			}
		}
	})
}

// TestRawReuseLeavesNoStaleEntries pins the raw wire's handling of a
// reused out: a peer that sends an empty or nil vector must leave an
// empty entry, never the previous call's vector.
func TestRawReuseLeavesNoStaleEntries(t *testing.T) {
	w := testWorld(t, 2, 3)
	g := WorldGroup(w)
	n := g.Size()
	w.Run(func(p *mpi.Proc) {
		me := g.Pos(p.Rank())
		full := make([][]int64, n)
		empty := make([][]int64, n)
		for j := range full {
			full[j] = []int64{int64(me), int64(j)}
			if j%2 == 1 {
				empty[j] = []int64{} // odd peers get empty, even peers nil
			}
		}
		var a2a, agv [][]int64
		a2a = g.AlltoallvInt64Compressed(p, full, a2a, nil)
		agv = g.AllgathervInt64(p, full[0], agv, nil)
		for src := 0; src < n; src++ {
			if len(a2a[src]) != 2 || len(agv[src]) != 2 {
				t.Errorf("rank %d: first round missed src %d: %v / %v", me, src, a2a[src], agv[src])
			}
		}
		a2a = g.AlltoallvInt64Compressed(p, empty, a2a, nil)
		agv = g.AllgathervInt64(p, empty[me%2], agv, nil)
		for src := 0; src < n; src++ {
			if len(a2a[src]) != 0 {
				t.Errorf("rank %d: alltoallv kept stale entry from %d: %v", me, src, a2a[src])
			}
			if len(agv[src]) != 0 {
				t.Errorf("rank %d: allgatherv kept stale entry from %d: %v", me, src, agv[src])
			}
		}
	})
}
