package obs

import (
	"math/bits"
	"time"
)

// Sketch bucket geometry: durations below 32ns map to their own bucket
// (identity), everything above lands in one of 16 sub-buckets per power of
// two. With int64 nanosecond durations the largest exponent is 62, so the
// array is fixed and small and the worst-case relative error is 1/16.
const (
	sketchIdentity = 32 // exact buckets for 0..31ns
	sketchSubBits  = 4  // 16 sub-buckets per octave
	sketchBuckets  = sketchIdentity + (63-5)*(1<<sketchSubBits)
)

// Sketch is a deterministic, mergeable quantile sketch over virtual-time
// durations: a fixed log-linear bucket array (DDSketch-style geometry with
// integer arithmetic only). Two properties matter here and rule out
// sampling sketches (t-digest, reservoir):
//
//   - Deterministic: bucket placement is a pure function of the value, so
//     the same multiset of observations yields identical state regardless
//     of arrival order or shard partitioning — quantiles
//     can be byte-compared across runs.
//   - Mergeable: element-wise addition gives
//     merge(sketch(A), sketch(B)) == sketch(A ∪ B) exactly, so per-shard or
//     per-machine sketches can roll up without error.
//
// Quantile answers are upper bounds with relative error <= 1/16, clamped
// to the observed maximum. A nil *Sketch no-ops, like every obs type.
type Sketch struct {
	counts [sketchBuckets]int64
	n      int64
	sum    time.Duration
	max    time.Duration
}

// sketchIndex maps a duration to its bucket. Negative durations clamp to 0.
func sketchIndex(d time.Duration) int {
	v := uint64(d)
	if d < 0 {
		v = 0
	}
	if v < sketchIdentity {
		return int(v)
	}
	e := bits.Len64(v) - 1 // >= 5
	sub := (v >> (uint(e) - sketchSubBits)) & (1<<sketchSubBits - 1)
	return sketchIdentity + (e-5)*(1<<sketchSubBits) + int(sub)
}

// sketchUpper returns the largest duration mapping to bucket i (the
// quantile answer for that bucket).
func sketchUpper(i int) time.Duration {
	if i < sketchIdentity {
		return time.Duration(i)
	}
	i -= sketchIdentity
	e := uint(i>>sketchSubBits) + 5
	sub := uint64(i & (1<<sketchSubBits - 1))
	return time.Duration((1<<sketchSubBits+sub+1)<<(e-sketchSubBits) - 1)
}

// Observe records one duration. Nil-safe.
func (s *Sketch) Observe(d time.Duration) {
	if s == nil {
		return
	}
	s.counts[sketchIndex(d)]++
	s.n++
	s.sum += d
	if d > s.max {
		s.max = d
	}
}

// Count returns the number of observations (0 on nil).
func (s *Sketch) Count() int64 {
	if s == nil {
		return 0
	}
	return s.n
}

// Sum returns the total observed time (0 on nil).
func (s *Sketch) Sum() time.Duration {
	if s == nil {
		return 0
	}
	return s.sum
}

// Max returns the largest observation (0 on nil or empty).
func (s *Sketch) Max() time.Duration {
	if s == nil {
		return 0
	}
	return s.max
}

// Quantile returns an upper bound on the q-quantile (0 < q <= 1), nearest
// rank over the bucket CDF, clamped to the observed maximum. Returns 0
// with no observations. Nil-safe.
func (s *Sketch) Quantile(q float64) time.Duration {
	if s == nil || s.n == 0 {
		return 0
	}
	rank := int64(q * float64(s.n))
	if float64(rank) < q*float64(s.n) {
		rank++ // ceil
	}
	if rank < 1 {
		rank = 1
	}
	if rank > s.n {
		rank = s.n
	}
	cum := int64(0)
	for i, c := range s.counts {
		cum += c
		if cum >= rank {
			if ub := sketchUpper(i); ub >= 0 && ub < s.max {
				return ub // top-octave upper bounds can overflow; max covers those
			}
			return s.max
		}
	}
	return s.max
}
