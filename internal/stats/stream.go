package stats

// Streaming aggregates for long simulation runs: a fixed-capacity ring
// buffer and a log-bucketed histogram. Both hold O(1) memory in the number
// of observations, which is what lets the facade's metrics sink watch a
// 100·n-round gossip schedule at O(1) memory in its rounds.

import "math/bits"

// Ring is a fixed-capacity ring buffer: Push beyond the capacity overwrites
// the oldest retained sample, so the buffer always holds the most recent
// Len() <= Cap() observations. The zero Ring is not usable; construct with
// NewRing.
type Ring[T any] struct {
	buf  []T
	next int // slot the next Push writes
	size int // retained samples, <= len(buf)
}

// NewRing returns an empty ring retaining at most capacity samples
// (capacity < 1 is clamped to 1).
func NewRing[T any](capacity int) *Ring[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring[T]{buf: make([]T, capacity)}
}

// Push appends v, evicting the oldest sample once the ring is full.
func (r *Ring[T]) Push(v T) {
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
	if r.size < len(r.buf) {
		r.size++
	}
}

// Len returns the number of retained samples.
func (r *Ring[T]) Len() int { return r.size }

// Cap returns the ring's capacity.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Tail returns the retained samples, oldest first, in a fresh slice.
func (r *Ring[T]) Tail() []T {
	out := make([]T, 0, r.size)
	start := 0
	if r.size == len(r.buf) {
		start = r.next
	}
	for i := 0; i < r.size; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// logHistogramBuckets covers every non-negative int64: bucket 0 plus one
// bucket per possible bit length (1..63).
const logHistogramBuckets = 64

// LogHistogram counts int64 observations in power-of-two buckets: bucket 0
// holds values <= 0 (e.g. zero-message rounds), bucket i >= 1 holds the
// half-open range [2^(i-1), 2^i). It needs no configuration and a fixed 64
// counters regardless of the observation range. The zero LogHistogram is
// ready to use.
type LogHistogram struct {
	counts [logHistogramBuckets]uint64
	n      uint64
	sum    int64
	max    int64
}

// BucketIndex returns the bucket an observation lands in.
func BucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// BucketBounds returns the half-open range [lo, hi) of bucket i. Bucket 0 is
// reported as the degenerate [0, 1); the top bucket's hi saturates at the
// int64 maximum.
func BucketBounds(i int) (lo, hi int64) {
	if i <= 0 {
		return 0, 1
	}
	lo = int64(1) << (i - 1)
	if i >= logHistogramBuckets-1 {
		return lo, int64(^uint64(0) >> 1)
	}
	return lo, int64(1) << i
}

// Observe records one value.
func (h *LogHistogram) Observe(v int64) {
	h.counts[BucketIndex(v)]++
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations.
func (h *LogHistogram) Count() uint64 { return h.n }

// Sum returns the sum of all observations.
func (h *LogHistogram) Sum() int64 { return h.sum }

// Max returns the largest observation (0 before any Observe).
func (h *LogHistogram) Max() int64 { return h.max }

// HistBucket is one non-empty histogram cell: Count observations fell in the
// half-open range [Lo, Hi).
type HistBucket struct {
	Lo    int64  `json:"lo"`
	Hi    int64  `json:"hi"`
	Count uint64 `json:"count"`
}

// Buckets returns the non-empty buckets in ascending value order.
func (h *LogHistogram) Buckets() []HistBucket {
	var out []HistBucket
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		lo, hi := BucketBounds(i)
		out = append(out, HistBucket{Lo: lo, Hi: hi, Count: c})
	}
	return out
}
