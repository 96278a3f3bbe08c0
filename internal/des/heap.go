package des

import (
	"math"
	"math/bits"
)

// heapItem is one pending completion, keyed by absolute virtual time
// with an insertion sequence as the deterministic tiebreak.
type heapItem struct {
	t   float64
	seq uint64
	job int32
	gen uint32
}

type doneHeap []heapItem

// before orders completions by time, then by insertion sequence: a
// total order, so every correct heap pops the same sequence.
func (a heapItem) before(b heapItem) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// beforeBit is before as 1 or 0, computed without a branch: the borrow
// out of the 128-bit subtraction (bits of a.t, a.seq) − (bits of b.t,
// b.seq). It needs t ≥ 0 and not NaN (no -0 either), where the bits of
// a float order as the float does. Completion times are: doneT is
// started + units/Rate with started ≥ 0, units ≥ 0 and a positive Rate.
func (a heapItem) beforeBit(b heapItem) int {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(math.Float64bits(a.t), math.Float64bits(b.t), borrow)
	return int(borrow)
}

func (h *doneHeap) push(it heapItem) {
	*h = append(*h, it)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !it.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = it
}

// pop removes the earliest completion. It moves the hole at the root
// down to a leaf along the earlier child, then sifts the last item up
// from there: one comparison per level on the way down instead of two,
// and moves instead of swaps. Where both children exist the earlier is
// picked by beforeBit, so the descent takes no data-dependent branch.
func (h *doneHeap) pop() heapItem {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q = q[:n]
	*h = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c+1 >= n {
			if c < n { // a lone left child
				q[i] = q[c]
				i = c
			}
			break
		}
		c += q[c+1].beforeBit(q[c])
		q[i] = q[c]
		i = c
	}
	for i > 0 {
		parent := (i - 1) / 2
		if !last.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = last
	return top
}
