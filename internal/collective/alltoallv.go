package collective

import (
	"numabfs/internal/mpi"
	"numabfs/internal/wire"
)

// AlltoallvInt64 exchanges variable-length int64 vectors between all
// members using the pairwise-exchange algorithm: n-1 steps, at step s
// member i sends to (i+s) mod n and receives from (i-s) mod n. The
// top-down BFS phase uses this to route discovered (vertex, parent)
// pairs to their owners, exactly as the Graph500 mpi_simple code does.
//
// send[j] is the vector destined for group position j (send[me] is
// delivered locally, without a message). The result is a fresh slice
// indexed by source group position; received vectors alias the
// senders' send buffers.
func (g *Group) AlltoallvInt64(p *mpi.Proc, send [][]int64) [][]int64 {
	return g.alltoallv(p, send, nil, nil)
}

// AlltoallvInt64Compressed is AlltoallvInt64 with every vector
// travelling in the codec's varint-delta list format: the same pairwise
// exchange, but each step encodes the outgoing vector into a per-step
// scratch slot (EncodeListSlot — a payload in flight is never
// overwritten by a later encode) and decodes the incoming payload on
// arrival. out, when non-nil, is reused; pass nil on first use. The
// member's own vector is referenced, not copied. A nil codec runs the
// raw exchange into the reused out.
func (g *Group) AlltoallvInt64Compressed(p *mpi.Proc, send [][]int64, out [][]int64, c *wire.Codec) [][]int64 {
	return g.alltoallv(p, send, out, c)
}

func (g *Group) alltoallv(p *mpi.Proc, send [][]int64, out [][]int64, c *wire.Codec) [][]int64 {
	n := g.Size()
	me := g.Pos(p.Rank())
	if out == nil {
		out = make([][]int64, n)
	}
	out[me] = send[me]
	if n == 1 {
		return out
	}
	t0 := p.Clock()
	for s := 1; s < n; s++ {
		dst := (me + s) % n
		src := (me - s + n) % n
		// BFS top-down exchanges are sparse: in most steps only the few
		// ranks owning frontier hubs carry data, so a rank's transfer
		// contends with its own outbound and inbound streams (2), not
		// with every co-located rank's empty synchronization message.
		if c == nil {
			payload := send[dst]
			m := p.SendRecv(g.ranks[dst], tagAlltoall+s, int64(len(payload))*8, payload,
				g.ranks[src], tagAlltoall+s, 2)
			out[src], _ = m.Payload.([]int64)
			continue
		}
		pl, ens := c.EncodeListSlot(send[dst], s)
		p.Compute(ens)
		m := p.SendRecvWire(g.ranks[dst], tagAlltoall+s, pl.WireBytes, pl.RawBytes, encSeg{id: me, pl: pl},
			g.ranks[src], tagAlltoall+s, 2)
		in := m.Payload.(encSeg)
		if in.id != src {
			panic("collective: compressed alltoallv received unexpected vector")
		}
		var dns float64
		out[src], dns = c.DecodeList(in.pl, out[src][:0])
		p.Compute(dns)
	}
	p.Obs().Collective(wireLabel(c, "alltoallv", "alltoallv-comp"), t0, p.Clock())
	return out
}
