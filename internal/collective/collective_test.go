package collective

import (
	"testing"
	"testing/quick"

	"numabfs/internal/machine"
	"numabfs/internal/mpi"
	"numabfs/internal/wire"
)

func testWorld(t testing.TB, nodes, ppn int) *mpi.World {
	t.Helper()
	cfg := machine.TableI()
	cfg.Nodes = nodes
	cfg.SocketsPerNode = ppn
	cfg.WeakNode = -1
	pl := machine.PlacementFor(cfg, machine.PPN8Bind)
	return mpi.NewWorld(cfg, pl)
}

// fillOwn stages rank r's segment with a recognizable pattern.
func fillOwn(buf []uint64, l Layout, pos int) {
	seg := l.seg(buf, pos)
	for i := range seg {
		seg[i] = uint64(pos)<<32 | uint64(i)
	}
}

// checkFull verifies every segment of buf carries its owner's pattern.
func checkFull(t *testing.T, who string, rank int, buf []uint64, l Layout) {
	t.Helper()
	for pos := range l.Counts {
		seg := l.seg(buf, pos)
		for i := range seg {
			if want := uint64(pos)<<32 | uint64(i); seg[i] != want {
				t.Fatalf("%s: rank %d segment %d word %d = %#x, want %#x", who, rank, pos, i, seg[i], want)
				return
			}
		}
	}
}

func runAllgather(t *testing.T, nodes, ppn int, words int64,
	fn func(g *Group, p *mpi.Proc, buf []uint64, l Layout)) {
	t.Helper()
	w := testWorld(t, nodes, ppn)
	g := WorldGroup(w)
	l := EvenLayout(words, g.Size())
	w.Run(func(p *mpi.Proc) {
		buf := make([]uint64, words)
		fillOwn(buf, l, g.Pos(p.Rank()))
		fn(g, p, buf, l)
		checkFull(t, "allgather", p.Rank(), buf, l)
	})
}

func TestAllgatherRing(t *testing.T) {
	forEachWire(t, func(t *testing.T, newCodec func() *wire.Codec) {
		for _, geo := range []struct{ nodes, ppn int }{{2, 4}, {1, 1}, {3, 2}} {
			w := testWorld(t, geo.nodes, geo.ppn)
			g := WorldGroup(w)
			l := EvenLayout(257, g.Size())
			codecs := make([]*wire.Codec, g.Size())
			w.Run(func(p *mpi.Proc) {
				buf := make([]uint64, 257)
				for i := range buf {
					buf[i] = 0xdead // every received segment must overwrite this
				}
				fillVaried(buf, l, g.Pos(p.Rank()))
				c := newCodec()
				codecs[g.Pos(p.Rank())] = c
				g.AllgatherRingCompressed(p, buf, l, c)
				checkVaried(t, "ring", p.Rank(), buf, l)
			})
			if codecs[0] == nil || g.Size() == 1 {
				continue
			}
			st := wireStats(codecs)
			var formats int
			for _, n := range st.Segments {
				if n > 0 {
					formats++
				}
			}
			if formats < 2 {
				t.Errorf("%d ranks: varied densities used only %d wire format(s): %v",
					g.Size(), formats, st.Segments)
			}
			if st.WireBytes >= st.RawBytes {
				t.Errorf("%d ranks: wire %d >= raw %d on compressible data",
					g.Size(), st.WireBytes, st.RawBytes)
			}
		}
	})
}

func TestAllgatherRingSingleRank(t *testing.T) {
	runAllgather(t, 1, 1, 16, (*Group).AllgatherRing)
}

func TestAllgatherRecDouble(t *testing.T) {
	runAllgather(t, 2, 4, 256, (*Group).AllgatherRecDouble)
}

func TestAllgatherBruck(t *testing.T) {
	runAllgather(t, 2, 4, 257, (*Group).AllgatherBruck)
}

func TestAllgatherBruckNonPowerOfTwo(t *testing.T) {
	// Bruck's selling point: any group size.
	runAllgather(t, 3, 2, 123, (*Group).AllgatherBruck)
	runAllgather(t, 1, 7, 99, (*Group).AllgatherBruck)
	runAllgather(t, 5, 1, 321, (*Group).AllgatherBruck)
}

func TestAllgatherAutoSmallAndLarge(t *testing.T) {
	runAllgather(t, 2, 4, 64, (*Group).Allgather)                       // rec-doubling path
	runAllgather(t, 2, 4, (RingThresholdBytes/8)*2, (*Group).Allgather) // ring path
}

func TestAllgatherVariantsAgreeProperty(t *testing.T) {
	// Property: for random uneven layouts, ring and recursive doubling
	// deliver identical full buffers.
	f := func(sizes [8]uint8) bool {
		var words int64
		counts := make([]int64, 8)
		for i, s := range sizes {
			counts[i] = int64(s%16) + 1
			words += counts[i]
		}
		offs := make([]int64, 9)
		for i := 0; i < 8; i++ {
			offs[i+1] = offs[i] + counts[i]
		}
		l := SegLayout(offs)

		results := make([][]uint64, 3)
		for vi, fn := range []func(g *Group, p *mpi.Proc, buf []uint64, l Layout){
			(*Group).AllgatherRing, (*Group).AllgatherRecDouble, (*Group).AllgatherBruck,
		} {
			w := testWorld(t, 2, 4)
			g := WorldGroup(w)
			out := make([]uint64, words)
			w.Run(func(p *mpi.Proc) {
				buf := make([]uint64, words)
				fillOwn(buf, l, g.Pos(p.Rank()))
				fn(g, p, buf, l)
				if p.Rank() == 3 {
					copy(out, buf)
				}
			})
			results[vi] = out
		}
		for i := range results[0] {
			if results[0][i] != results[1][i] || results[0][i] != results[2][i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestGatherBinomial(t *testing.T) {
	for _, root := range []int{0, 3, 5} {
		w := testWorld(t, 2, 4)
		g := WorldGroup(w)
		l := EvenLayout(123, g.Size())
		w.Run(func(p *mpi.Proc) {
			buf := make([]uint64, 123)
			fillOwn(buf, l, g.Pos(p.Rank()))
			g.GatherBinomial(p, buf, l, root)
			if g.Pos(p.Rank()) == root {
				checkFull(t, "gather", p.Rank(), buf, l)
			}
		})
	}
}

func TestBcastBinomial(t *testing.T) {
	for _, root := range []int{0, 2, 7} {
		w := testWorld(t, 2, 4)
		g := WorldGroup(w)
		const words = 99
		w.Run(func(p *mpi.Proc) {
			buf := make([]uint64, words)
			if g.Pos(p.Rank()) == root {
				for i := range buf {
					buf[i] = uint64(i) * 3
				}
			}
			g.BcastBinomial(p, buf, words, root)
			for i := range buf {
				if buf[i] != uint64(i)*3 {
					t.Errorf("root %d rank %d word %d = %d", root, p.Rank(), i, buf[i])
					return
				}
			}
		})
	}
}

func TestAllreduceSumInt64(t *testing.T) {
	for _, geo := range []struct{ nodes, ppn int }{{2, 4}, {3, 1}, {1, 3}} {
		w := testWorld(t, geo.nodes, geo.ppn)
		g := WorldGroup(w)
		n := int64(g.Size())
		want := n * (n - 1) / 2
		w.Run(func(p *mpi.Proc) {
			got := g.AllreduceSumInt64(p, int64(p.Rank()))
			if got != want {
				t.Errorf("%d ranks: rank %d got %d, want %d", n, p.Rank(), got, want)
			}
		})
	}
}

func TestAlltoallvInt64(t *testing.T) {
	forEachWire(t, func(t *testing.T, newCodec func() *wire.Codec) {
		w := testWorld(t, 2, 3)
		g := WorldGroup(w)
		n := g.Size()
		w.Run(func(p *mpi.Proc) {
			me := g.Pos(p.Rank())
			send := make([][]int64, n)
			for j := 0; j < n; j++ {
				// me sends j a vector of length (me+1) holding me*100+j.
				v := make([]int64, me+1)
				for k := range v {
					v[k] = int64(me*100 + j)
				}
				send[j] = v
			}
			var recv [][]int64
			// Two rounds: the second reuses recv, the engines' steady state
			// (with a fresh codec, as in TestAllgathervInt64).
			for round := 0; round < 2; round++ {
				recv = g.AlltoallvInt64Compressed(p, send, recv, newCodec())
				for src := 0; src < n; src++ {
					if len(recv[src]) != src+1 {
						t.Errorf("round %d rank %d: len(recv[%d]) = %d, want %d",
							round, me, src, len(recv[src]), src+1)
						continue
					}
					for _, v := range recv[src] {
						if v != int64(src*100+me) {
							t.Errorf("round %d rank %d: recv[%d] holds %d, want %d",
								round, me, src, v, src*100+me)
							break
						}
					}
				}
			}
		})
	})
}

func TestLeaderAllgather(t *testing.T) {
	w := testWorld(t, 4, 4)
	nc := NewNodeComm(w)
	l := EvenLayout(640, w.NumProcs())
	w.Run(func(p *mpi.Proc) {
		buf := make([]uint64, 640)
		fillOwn(buf, l, p.Rank())
		st := nc.LeaderAllgather(p, buf, l)
		checkFull(t, "leader", p.Rank(), buf, l)
		if p.LocalRank() != 0 && st.InterNs != 0 {
			t.Errorf("child rank %d charged inter time %g", p.Rank(), st.InterNs)
		}
		if st.BcastNs <= 0 {
			t.Errorf("rank %d: BcastNs = %g, want > 0", p.Rank(), st.BcastNs)
		}
	})
}

func TestSharedInQueueAllgather(t *testing.T) {
	w := testWorld(t, 4, 4)
	nc := NewNodeComm(w)
	const words = 640
	l := EvenLayout(words, w.NumProcs())
	w.Run(func(p *mpi.Proc) {
		shared := p.SharedWords("inq", words)
		seg := make([]uint64, l.Counts[p.Rank()])
		for i := range seg {
			seg[i] = uint64(p.Rank())<<32 | uint64(i)
		}
		st := nc.SharedInQueueAllgather(p, shared, seg, l)
		checkFull(t, "shared-inq", p.Rank(), shared, l)
		if st.BcastNs != 0 {
			t.Errorf("rank %d: BcastNs = %g, want 0 (eliminated)", p.Rank(), st.BcastNs)
		}
	})
}

func TestSharedAllAllgather(t *testing.T) {
	w := testWorld(t, 4, 4)
	nc := NewNodeComm(w)
	const words = 640
	l := EvenLayout(words, w.NumProcs())
	w.Run(func(p *mpi.Proc) {
		sharedIn := p.SharedWords("inq", words)
		sharedOut := p.SharedWords("outq", words)
		// Each rank stages its own segment in the node-shared out region.
		fillOwn(sharedOut, l, p.Rank())
		p.NodeBarrier()
		nc.SharedAllAllgather(p, sharedIn, sharedOut, l)
		checkFull(t, "shared-all", p.Rank(), sharedIn, l)
	})
}

func TestParallelAllgather(t *testing.T) {
	forEachWire(t, func(t *testing.T, newCodec func() *wire.Codec) {
		w := testWorld(t, 4, 4)
		nc := NewNodeComm(w)
		const words = 640
		l := EvenLayout(words, w.NumProcs())
		w.Run(func(p *mpi.Proc) {
			shared := p.SharedWords("inq", words)
			seg := make([]uint64, l.Counts[p.Rank()])
			for i := range seg {
				seg[i] = variedWord(p.Rank(), i)
			}
			nc.ParallelAllgatherCompressed(p, shared, seg, l, newCodec())
			checkVaried(t, "parallel", p.Rank(), shared, l)
		})
	})
}

func TestLeaderAllgatherPipelined(t *testing.T) {
	for _, geo := range []struct{ nodes, ppn int }{{4, 4}, {2, 8}, {3, 2}} {
		w := testWorld(t, geo.nodes, geo.ppn)
		nc := NewNodeComm(w)
		const words = 644
		l := EvenLayout(words, w.NumProcs())
		w.Run(func(p *mpi.Proc) {
			buf := make([]uint64, words)
			fillOwn(buf, l, p.Rank())
			nc.LeaderAllgatherPipelined(p, buf, l)
			checkFull(t, "pipelined", p.Rank(), buf, l)
		})
	}
}

func TestPipelinedOverlapHelpsButSharingWins(t *testing.T) {
	// The paper's Section V argument: overlap (HierKNEM-style) improves
	// on plain leader-based allgather, but cannot beat eliminating the
	// intra-node copies entirely by sharing.
	const nodes, ppn, words = 4, 8, 1 << 16
	timeOf := func(run func(w *mpi.World, nc *NodeComm, l Layout)) float64 {
		w := testWorld(t, nodes, ppn)
		nc := NewNodeComm(w)
		l := EvenLayout(words, w.NumProcs())
		run(w, nc, l)
		return w.MaxClock()
	}
	leader := timeOf(func(w *mpi.World, nc *NodeComm, l Layout) {
		w.Run(func(p *mpi.Proc) {
			buf := make([]uint64, words)
			nc.LeaderAllgather(p, buf, l)
		})
	})
	pipelined := timeOf(func(w *mpi.World, nc *NodeComm, l Layout) {
		w.Run(func(p *mpi.Proc) {
			buf := make([]uint64, words)
			nc.LeaderAllgatherPipelined(p, buf, l)
		})
	})
	shared := timeOf(func(w *mpi.World, nc *NodeComm, l Layout) {
		w.Run(func(p *mpi.Proc) {
			sharedIn := p.SharedWords("inq", words)
			sharedOut := p.SharedWords("outq", words)
			p.NodeBarrier()
			nc.SharedAllAllgather(p, sharedIn, sharedOut, l)
		})
	})
	if !(pipelined < leader) {
		t.Errorf("pipelined overlap (%.0f) not faster than plain leader-based (%.0f)", pipelined, leader)
	}
	if !(shared < pipelined) {
		t.Errorf("sharing (%.0f) not faster than overlap (%.0f) — the paper's Section V claim", shared, pipelined)
	}
}

func TestEq1RingVolume(t *testing.T) {
	// Eq. (1): total allgather traffic is m*(np-1) bytes. Under
	// compression the wire bytes shrink to the codec's encoded sizes,
	// but the raw (logical) volume still satisfies Eq. (1).
	forEachWire(t, func(t *testing.T, newCodec func() *wire.Codec) {
		w := testWorld(t, 2, 4)
		g := WorldGroup(w)
		const words = 800
		l := EvenLayout(words, g.Size())
		w.Run(func(p *mpi.Proc) {
			buf := make([]uint64, words)
			fillVaried(buf, l, g.Pos(p.Rank()))
			g.AllgatherRingCompressed(p, buf, l, newCodec())
		})
		vol := w.Net().Volume()
		m := int64(words * 8)
		wantRaw := m * int64(g.Size()-1)
		if got := vol.RawIntraBytes + vol.RawInterBytes; got != wantRaw {
			t.Fatalf("ring raw volume = %d, want m*(np-1) = %d", got, wantRaw)
		}
		wantWire := wantRaw
		if newCodec() != nil {
			wantWire = expectedWire(l, allPositions(g.Size()), g.Size()-1)
			if wantWire >= wantRaw {
				t.Fatalf("wire %d did not shrink below raw %d on varied-density data", wantWire, wantRaw)
			}
		}
		if got := vol.IntraBytes + vol.InterBytes; got != wantWire {
			t.Fatalf("ring wire volume = %d, want %d", got, wantWire)
		}
	})
}

func TestEq2ParallelVolume(t *testing.T) {
	// Eq. (2): parallelized allgather moves m*(np/ppn - 1) bytes over the
	// network — the same as one leader per node moving everything — and
	// nothing intra-node. Under compression that holds on the raw
	// ledger; the wire ledger carries the codec's encoded sizes.
	forEachWire(t, func(t *testing.T, newCodec func() *wire.Codec) {
		const nodes, ppn, words = 4, 4, 960
		w := testWorld(t, nodes, ppn)
		nc := NewNodeComm(w)
		l := EvenLayout(words, w.NumProcs())
		w.Run(func(p *mpi.Proc) {
			shared := p.SharedWords("inq", words)
			seg := make([]uint64, l.Counts[p.Rank()])
			for i := range seg {
				seg[i] = variedWord(p.Rank(), i)
			}
			nc.ParallelAllgatherCompressed(p, shared, seg, l, newCodec())
		})
		vol := w.Net().Volume()
		m := int64(words * 8)
		wantRaw := m * int64(nodes-1)
		if vol.RawInterBytes != wantRaw {
			t.Fatalf("parallel allgather raw inter-node volume = %d, want m*(np/ppn-1) = %d",
				vol.RawInterBytes, wantRaw)
		}
		if vol.RawIntraBytes != 0 || vol.IntraBytes != 0 {
			t.Fatalf("parallel allgather moved intra-node MPI bytes (raw %d, wire %d), want 0",
				vol.RawIntraBytes, vol.IntraBytes)
		}
		wantWire := wantRaw
		if newCodec() != nil {
			wantWire = expectedWire(l, allPositions(w.NumProcs()), nodes-1)
			if wantWire >= wantRaw {
				t.Fatalf("wire %d did not shrink below raw %d", wantWire, wantRaw)
			}
		}
		if vol.InterBytes != wantWire {
			t.Fatalf("parallel allgather wire volume = %d, want %d", vol.InterBytes, wantWire)
		}
	})
}

func TestLeaderAllgatherCheaperWhenShared(t *testing.T) {
	// The point of Section III.A: sharing eliminates intra-node steps, so
	// the whole operation takes less virtual time than leader-based.
	const nodes, ppn, words = 4, 8, 1 << 16
	timeOf := func(run func(w *mpi.World, nc *NodeComm, l Layout)) float64 {
		w := testWorld(t, nodes, ppn)
		nc := NewNodeComm(w)
		l := EvenLayout(words, w.NumProcs())
		run(w, nc, l)
		return w.MaxClock()
	}
	leader := timeOf(func(w *mpi.World, nc *NodeComm, l Layout) {
		w.Run(func(p *mpi.Proc) {
			buf := make([]uint64, words)
			nc.LeaderAllgather(p, buf, l)
		})
	})
	sharedIn := timeOf(func(w *mpi.World, nc *NodeComm, l Layout) {
		w.Run(func(p *mpi.Proc) {
			shared := p.SharedWords("inq", words)
			seg := make([]uint64, l.Counts[p.Rank()])
			nc.SharedInQueueAllgather(p, shared, seg, l)
		})
	})
	sharedAll := timeOf(func(w *mpi.World, nc *NodeComm, l Layout) {
		w.Run(func(p *mpi.Proc) {
			sharedIn := p.SharedWords("inq", words)
			sharedOut := p.SharedWords("outq", words)
			p.NodeBarrier()
			nc.SharedAllAllgather(p, sharedIn, sharedOut, l)
		})
	})
	par := timeOf(func(w *mpi.World, nc *NodeComm, l Layout) {
		w.Run(func(p *mpi.Proc) {
			shared := p.SharedWords("inq", words)
			seg := make([]uint64, l.Counts[p.Rank()])
			nc.ParallelAllgather(p, shared, seg, l)
		})
	})
	if !(sharedIn < leader) {
		t.Errorf("share in_queue (%.0f) not faster than leader-based (%.0f)", sharedIn, leader)
	}
	if !(sharedAll < sharedIn) {
		t.Errorf("share all (%.0f) not faster than share in_queue (%.0f)", sharedAll, sharedIn)
	}
	if !(par < sharedAll) {
		t.Errorf("parallel allgather (%.0f) not faster than share all (%.0f)", par, sharedAll)
	}
}
