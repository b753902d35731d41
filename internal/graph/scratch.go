package graph

import "sync"

// Scratch bundles the per-traversal buffers of one BFS: a distance slice
// and a frontier queue. Scratches are pooled so that the worker goroutines
// of the parallel matching core allocate their traversal state once per
// burst instead of once per source; pair every GetScratch with a Put.
type Scratch struct {
	Dist  []int32
	Queue []int32
}

var scratchPool = sync.Pool{New: func() interface{} { return new(Scratch) }}

// GetScratch returns a pooled Scratch whose Dist has length n and is
// pre-filled with -1, ready for BFSDistInto.
func GetScratch(n int) *Scratch {
	s := scratchPool.Get().(*Scratch)
	s.Reset(n)
	return s
}

// Reset sizes Dist to n and refills it with -1. The queue keeps its grown
// capacity.
func (s *Scratch) Reset(n int) {
	if cap(s.Dist) < n {
		s.Dist = make([]int32, n)
	}
	s.Dist = s.Dist[:n]
	for i := range s.Dist {
		s.Dist[i] = -1
	}
}

// Put returns the scratch to the pool. The buffers (including any growth
// the BFS caused) stay with it, making reuse sticky.
func (s *Scratch) Put() {
	scratchPool.Put(s)
}

// SweepScratch bundles the per-worker buffers of a 64-source mask sweep
// (internal/core's witness sweeps): three uint64-per-node arrays — the
// masks seen so far, the current frontier's and the next frontier's —
// plus the frontier and touched lists. At a million nodes that is 24 MB,
// so it is pooled like Scratch rather than allocated per query.
//
// The contract is "zero in, zero out": GetSweepScratch hands the arrays
// out all-zero, and the holder must zero every entry it wrote (through
// its touched lists — never an O(|V|) clear per block) before Put.
type SweepScratch struct {
	Seen, Cur, Next []uint64
	Frontier, Grown []int32 // current and next frontier
	Touched         []int32 // entries of Seen that are nonzero
}

var sweepScratchPool = sync.Pool{New: func() interface{} { return new(SweepScratch) }}

// GetSweepScratch returns a pooled SweepScratch whose three mask arrays
// have length n and are all zero.
func GetSweepScratch(n int) *SweepScratch {
	s := sweepScratchPool.Get().(*SweepScratch)
	if cap(s.Seen) < n {
		s.Seen, s.Cur, s.Next = make([]uint64, n), make([]uint64, n), make([]uint64, n)
	}
	// Within capacity every entry is zero by the Put contract, so
	// re-slicing needs no clear.
	s.Seen, s.Cur, s.Next = s.Seen[:n], s.Cur[:n], s.Next[:n]
	return s
}

// Put returns the scratch to the pool. The mask arrays must be all-zero
// again; the lists keep their grown capacity.
func (s *SweepScratch) Put() {
	s.Frontier, s.Grown, s.Touched = s.Frontier[:0], s.Grown[:0], s.Touched[:0]
	sweepScratchPool.Put(s)
}
