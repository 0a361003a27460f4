package obs

import "sort"

// Buckets returns a copy of the non-cumulative per-bucket counts, the +Inf
// overflow count last. Snapshot semantics: mutating the result cannot
// corrupt the histogram.
func (h *Histogram) Buckets() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, 0, len(histBuckets)+1)
	out = append(out, h.counts[:]...)
	return append(out, h.inf)
}

// Merge folds other into s: element-wise count addition, exactly
// equivalent to having observed other's values directly. Nil-safe on both
// sides.
func (s *Sketch) Merge(other *Sketch) {
	if s == nil || other == nil {
		return
	}
	for i, c := range other.counts {
		s.counts[i] += c
	}
	s.n += other.n
	s.sum += other.sum
	if other.max > s.max {
		s.max = other.max
	}
}

// Merge folds other's counts and sketches into e (per-shard engines
// rolling up to one). Objectives must agree where both sides configured
// the same function; other's explicit objectives win on functions e only
// tracked by default. Nil-safe on both sides.
func (e *SLOEngine) Merge(other *SLOEngine) {
	if e == nil || other == nil {
		return
	}
	names := make([]string, 0, len(other.series))
	for fn := range other.series { //lint:unordered collected then sorted below
		names = append(names, fn)
	}
	sort.Strings(names)
	for _, fn := range names {
		os := other.series[fn]
		s := e.get(fn)
		if os.hasCfg && !s.hasCfg {
			s.cfg, s.hasCfg = os.cfg, true
		}
		s.total += os.total
		s.good += os.good
		s.sketch.Merge(&os.sketch)
	}
}
