package collective

import (
	"numabfs/internal/mpi"
	"numabfs/internal/wire"
)

const tagGatherList = 0x8000

// AllgathervInt64 gathers every member's variable-length int64 vector to
// all members (a ring, like AllgatherRing, but over lists whose lengths
// only their owners know — the "expand" phase of the 2-D BFS gathers
// frontier vertex lists along a processor column this way). The result
// is indexed by group position; the caller's own slice is referenced,
// not copied. out, when non-nil, is reused; pass nil on first use.
//
// A nil codec forwards the raw lists (received lists alias their
// owners' slices). Otherwise every list travels in the codec's
// varint-delta format: each member encodes its own list once, and
// receivers decode into out[i][:0] and forward the still-encoded
// payload.
func (g *Group) AllgathervInt64(p *mpi.Proc, mine []int64, out [][]int64, c *wire.Codec) [][]int64 {
	n := g.Size()
	me := g.Pos(p.Rank())
	if out == nil {
		out = make([][]int64, n)
	}
	out[me] = mine
	if n == 1 {
		return out
	}
	next := g.ranks[(me+1)%n]
	prev := g.ranks[(me-1+n)%n]
	streams := g.ringStreams()[me]

	t0 := p.Clock()
	var cur wire.Payload
	if c != nil {
		var ns float64
		cur, ns = c.EncodeList(mine)
		p.Compute(ns)
	}
	for s := 0; s < n-1; s++ {
		sendID := (me - s + n) % n
		recvID := (me - s - 1 + n) % n
		if c == nil {
			payload := out[sendID]
			m := p.SendRecv(next, tagGatherList+s, int64(len(payload))*8, payload,
				prev, tagGatherList+s, streams)
			out[recvID], _ = m.Payload.([]int64)
			continue
		}
		m := p.SendRecvWire(next, tagGatherList+s, cur.WireBytes, cur.RawBytes, encSeg{id: sendID, pl: cur},
			prev, tagGatherList+s, streams)
		in := m.Payload.(encSeg)
		if in.id != recvID {
			panic("collective: compressed list ring received unexpected list")
		}
		var dns float64
		out[recvID], dns = c.DecodeList(in.pl, out[recvID][:0])
		p.Compute(dns)
		cur = in.pl
	}
	p.Obs().Collective(wireLabel(c, "allgatherv-list", "allgatherv-list-comp"), t0, p.Clock())
	return out
}
