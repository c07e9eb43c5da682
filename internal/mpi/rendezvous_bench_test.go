package mpi

import (
	"fmt"
	"testing"
)

// BenchmarkPairwiseExchange times the rendezvous path at two of the
// paper's shapes. One iteration is one (np-1)-step pairwise SendRecv
// exchange with empty payloads across every rank — the message pattern
// of the 1-D top-down alltoallv, whose np² messages dominate the
// 128-rank runs.
func BenchmarkPairwiseExchange(b *testing.B) {
	for _, nodes := range []int{2, 16} {
		w := shapedWorld(nodes, 8)
		np := w.NumProcs()
		b.Run(fmt.Sprintf("np=%d", np), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			w.Run(func(p *Proc) {
				r := p.Rank()
				for i := 0; i < b.N; i++ {
					for s := 1; s < np; s++ {
						p.SendRecv((r+s)%np, s, 0, nil, (r-s+np)%np, s, 1)
					}
				}
			})
		})
	}
}
