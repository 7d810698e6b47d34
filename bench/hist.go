package main

import (
	"math/bits"
	"time"
)

// hist is a log-bucket latency histogram over nanoseconds. Values below
// 2^histSub land in exact buckets; above that each power of two splits into
// 2^histSub equal sub-buckets, so a bucket is at most 1/64 = 1.6% wide. A
// record is a shift, a mask and an increment: no allocation, no float math.
// One client owns one hist; merge combines them after the clients stop.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	histSub     = 6
	histBuckets = (64 - histSub + 1) << histSub
)

func histIndex(ns uint64) int {
	if ns < 1<<histSub {
		return int(ns)
	}
	e := bits.Len64(ns) - 1 // 2^e <= ns < 2^(e+1), e >= histSub
	return (e-histSub+1)<<histSub | int(ns>>(e-histSub))&(1<<histSub-1)
}

// histUpper is the largest value that lands in bucket i.
func histUpper(i int) uint64 {
	if i < 1<<histSub {
		return uint64(i)
	}
	e := i>>histSub + histSub - 1
	sub := uint64(i & (1<<histSub - 1))
	return (1<<histSub+sub+1)<<(e-histSub) - 1
}

func (h *hist) record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[histIndex(uint64(d))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds, interpolated linearly by
// rank inside the bucket that holds it, so the error is under one bucket
// width and two runs do not read the same bucket edge.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	if rank > float64(h.n)-0.5 {
		rank = float64(h.n) - 0.5
	}
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) > rank {
			lo := 0.0
			if i > 0 {
				lo = float64(histUpper(i-1)) + 1
			}
			hi := float64(histUpper(i)) + 1
			return lo + (hi-lo)*(rank-cum+0.5)/float64(c+1)
		}
		cum += float64(c)
	}
	return float64(histUpper(histBuckets - 1))
}

// mean is the bucket-edge weighted mean in nanoseconds.
func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	sum := 0.0
	for i, c := range h.counts {
		if c != 0 {
			sum += float64(c) * float64(histUpper(i))
		}
	}
	return sum / float64(h.n)
}
