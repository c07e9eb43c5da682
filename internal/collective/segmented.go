package collective

import (
	"fmt"

	"numabfs/internal/mpi"
	"numabfs/internal/obs"
	"numabfs/internal/wire"
)

// This file implements the segmented, pipelined, compressed variant of
// the parallelized allgather (Fig. 7) that the engine's sixth
// optimization level (OptOverlapAllgather) is built on: each member's
// segment is split into Q uniform chunks, the subgroup ring is driven
// through Isend/Irecv so exactly one chunk transfer per neighbor is in
// flight while the rank decodes and scans the chunk that just landed,
// and the caller's onChunk hook runs the moment a chunk's words are
// final — Buluç & Madduri's communication/computation overlap,
// expressed on the paper's NUMA-aware collective.

// Overlap is the caller-owned ledger a segmented allgather fills in: how
// much of the transfer time ran under the rank's own computation
// (hidden) versus stalled the rank in Wait (exposed), the chunk count
// actually used, and the virtual completion time of every received
// chunk. The ledger is reset at the start of each collective; its slices
// are reused across calls.
type Overlap struct {
	// HiddenNs is the part of the received transfers that completed (or
	// progressed) before the rank reached its Wait — communication the
	// pipeline hid behind decode and frontier scanning. ExposedNs is the
	// clock the rank actually spent stalled in the send/recv Waits;
	// transport retransmission delays under lossy links surface here.
	HiddenNs  float64
	ExposedNs float64
	// Segments is the chunk count per member segment actually used: the
	// requested count clamped to the smallest segment and the tag space.
	Segments int
	// SegEndNs records, in pipeline order, the virtual completion time of
	// every received chunk transfer.
	SegEndNs []float64

	// hold is the ring pipeline's forwarding slots (the chunk received
	// at flattened index k waits here until send k+Q). It lives on the
	// caller-owned ledger so steady-state collectives — one per
	// bottom-up level of every root — reuse it instead of allocating per
	// call. Stale entries are never read: slot q is always rewritten
	// (step 0's receive) before its first forward.
	hold []wire.Payload
}

func (o *Overlap) reset() {
	o.HiddenNs, o.ExposedNs, o.Segments = 0, 0, 0
	o.SegEndNs = o.SegEndNs[:0]
}

// Efficiency returns the hidden share of all transfer time, in [0, 1]
// (0 when the collective moved nothing).
func (o *Overlap) Efficiency() float64 {
	t := o.HiddenNs + o.ExposedNs
	if t == 0 {
		return 0
	}
	return o.HiddenNs / t
}

// encChunk is one pipelined ring message: chunk q of origin segment
// id, wire-encoded. The payload bytes live in the origin's per-slot
// codec scratch (wire.EncodeSlot), stable until the origin's next
// collective — forwarding never re-encodes.
type encChunk struct {
	id, q int
	pl    wire.Payload
}

// chunkCount clamps the requested chunk count to what the layout and
// the tag space support: at least 1, at most the smallest non-empty
// segment (so no chunk is empty), at most 256 (the flattened step×chunk
// tags of a 16-node subgroup then stay inside the 0xB000 block).
func chunkCount(l Layout, want int) int {
	q := int64(want)
	if q < 1 {
		q = 1
	}
	if q > 256 {
		q = 256
	}
	for _, c := range l.Counts {
		if c > 0 && c < q {
			q = c
		}
	}
	return int(q)
}

// chunkSpan returns the word range [w0, w1) of chunk q (of Q) of member
// id's segment. Both sides of every transfer derive the same bounds from
// the layout, so no chunk geometry ever crosses the wire.
func chunkSpan(l Layout, id, q, Q int) (int64, int64) {
	d, c := l.Displs[id], l.Counts[id]
	return d + c*int64(q)/int64(Q), d + c*int64(q+1)/int64(Q)
}

// allgatherRingSegmented is the pipelined ring allgather underneath
// ParallelAllgatherSegmentedC. The (n-1) ring steps × Q chunks flatten
// to K exchanges; the loop keeps exactly one send and one receive in
// flight: wait on pair k, post pair k+1, then decode and scan chunk k
// while pair k+1's transfer runs. Send k+1 always forwards data whose
// receive completed at k+1-Q ≤ k, so the pipeline can never deadlock on
// the capacity-1 mailboxes, and the per-chunk Wait bracketing splits
// every transfer into hidden and exposed time via Request.BeginNs/EndNs.
// Chunks travel in the codec's wire formats; onChunk, when non-nil, is
// called with every finalized word range — own chunks first, right
// after the pipeline starts, so their scan overlaps the first transfer
// — and returns compute ns to charge.
func (g *Group) allgatherRingSegmented(p *mpi.Proc, buf []uint64, l Layout, streams, chunks int, c *wire.Codec, onChunk func(w0, w1 int64) float64, ov *Overlap) {
	Q := chunkCount(l, chunks)
	ov.Segments = Q
	n := g.Size()
	me := g.Pos(p.Rank())
	if n == 1 {
		if onChunk != nil {
			for q := 0; q < Q; q++ {
				w0, w1 := chunkSpan(l, me, q, Q)
				p.Compute(onChunk(w0, w1))
			}
		}
		return
	}
	next := g.ranks[(me+1)%n]
	prev := g.ranks[(me-1+n)%n]
	K := (n - 1) * Q

	// hold[q] carries the payload received at flattened index k (k%Q == q)
	// until it is forwarded by send k+Q. The slots are pooled on the
	// ledger across collectives.
	if cap(ov.hold) < Q {
		ov.hold = make([]wire.Payload, Q)
	}
	hold := ov.hold[:Q]
	var msgs [2]mpi.Msg

	postPair := func(k int) (*mpi.Request, *mpi.Request) {
		s, q := k/Q, k%Q
		sendID := (me - s + n) % n
		tag := tagSeg + k
		pl := hold[q]
		if s == 0 {
			w0, w1 := chunkSpan(l, sendID, q, Q)
			var ns float64
			pl, ns = c.EncodeSlot(buf[w0:w1], q)
			p.Compute(ns)
		}
		sr := p.IsendWire(next, tag, pl.WireBytes, pl.RawBytes,
			encChunk{id: sendID, q: q, pl: pl}, streams)
		return sr, p.Irecv(prev, tag, &msgs[k%2])
	}

	sr, rr := postPair(0)
	if onChunk != nil {
		// Scan the rank's own segment while chunk 0 is in flight.
		for q := 0; q < Q; q++ {
			w0, w1 := chunkSpan(l, me, q, Q)
			p.Compute(onChunk(w0, w1))
		}
	}

	for k := 0; k < K; k++ {
		s, q := k/Q, k%Q
		recvID := (me - s - 1 + n) % n

		// Receive before the send wait: the send's ack only arrives once
		// the successor executes its own receive, so waiting on the send
		// first would deadlock the whole ring in send waits.
		waitStart := p.Clock()
		rr.Wait()
		sr.Wait()
		if d := p.Clock() - waitStart; d > 0 {
			ov.ExposedNs += d
			p.Obs().GaugeAdd(obs.GaugeExposedWait, waitStart, d)
		}
		if h := minf(waitStart, rr.EndNs) - rr.BeginNs; h > 0 {
			ov.HiddenNs += h
		}
		ov.SegEndNs = append(ov.SegEndNs, rr.EndNs)

		// Extract and stash the payload before posting pair k+1 (its send
		// may read hold slot q for a deeper forward in a later iteration;
		// the in-flight message keeps its own copy of the value).
		in := msgs[k%2].Payload.(encChunk)
		hold[q] = in.pl
		if in.id != recvID || in.q != q {
			panic(fmt.Sprintf("collective: segmented ring expected chunk %d/%d, got %d/%d",
				recvID, q, in.id, in.q))
		}

		if k+1 < K {
			sr, rr = postPair(k + 1)
		}

		// Chunk k is final: land it and scan it while pair k+1 flies.
		w0, w1 := chunkSpan(l, in.id, in.q, Q)
		p.Compute(c.Decode(buf[w0:w1], in.pl))
		if onChunk != nil {
			p.Compute(onChunk(w0, w1))
		}
	}
}

// ParallelAllgatherSegmentedC is ParallelAllgatherCompressed (Fig. 7)
// driven through the nonblocking chunk pipeline — the sixth
// optimization level's in_queue exchange. Same staging copy, same
// per-socket subgroup rings and node barrier, but chunks travel in the
// codec's wire formats (encoded once at the origin into per-chunk
// scratch slots, forwarded still-encoded), decode + onChunk of each
// landed chunk run under the next chunk's transfer, and ov reports the
// hidden and exposed time. c must be non-nil.
func (nc *NodeComm) ParallelAllgatherSegmentedC(p *mpi.Proc, shared []uint64, seg []uint64, l Layout, chunks int, c *wire.Codec, onChunk func(w0, w1 int64) float64, ov *Overlap) StepTimes {
	var st StepTimes
	me := nc.World.Pos(p.Rank())
	node := nc.Nodes[p.Node()]
	tc := p.Clock()
	ov.reset()

	t0 := p.Clock()
	copy(l.seg(shared, me), seg)
	p.Compute(float64(l.Counts[me]*8) / p.World().Config().ShmCopyBW)

	lo, hi := nc.subRange(p)
	for j := lo; j <= hi; j++ {
		sub := nc.Subs[j]
		sub.allgatherRingSegmented(p, shared, nc.subLayout(sub, l, j), nc.nodeStreams(p), chunks, c, onChunk, ov)
	}
	st.InterNs = p.Clock() - t0

	t0 = p.Clock()
	node.barrierVia(p)
	st.InterNs += p.Clock() - t0
	p.Obs().Collective("par-allgather-seg-comp", tc, p.Clock())
	return st
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
