package obs

import (
	"reflect"
	"testing"
	"time"
)

// TestSketchIdentityBuckets pins the exact region: durations below 32ns map
// to their own bucket and quantile answers there are exact.
func TestSketchIdentityBuckets(t *testing.T) {
	for i := 0; i < sketchIdentity; i++ {
		d := time.Duration(i)
		if got := sketchIndex(d); got != i {
			t.Fatalf("sketchIndex(%d) = %d, want %d", i, got, i)
		}
		if got := sketchUpper(i); got != d {
			t.Fatalf("sketchUpper(%d) = %v, want %v", i, got, d)
		}
	}
}

// TestSketchGeometry pins the log-linear contract: upper bounds bracket the
// value with relative error <= 1/16, and indices are monotone.
func TestSketchGeometry(t *testing.T) {
	cases := []time.Duration{ // ascending, for the monotonicity check
		32, 33, 63, 64, 100, time.Microsecond, 1023, 1024, 1025,
		time.Millisecond, 2500 * time.Microsecond,
		17 * time.Millisecond, time.Second,
		time.Duration(1) << 40, time.Duration(1)<<40 + 1, // ~18.3min
		time.Hour, 24 * time.Hour,
	}
	prevIdx := -1
	for _, d := range cases {
		idx := sketchIndex(d)
		if idx < 0 || idx >= sketchBuckets {
			t.Fatalf("sketchIndex(%v) = %d out of range", d, idx)
		}
		if idx < prevIdx {
			t.Fatalf("sketchIndex not monotone at %v: %d < %d", d, idx, prevIdx)
		}
		prevIdx = idx
		ub := sketchUpper(idx)
		if ub < d {
			t.Fatalf("sketchUpper(%v) = %v below the value", d, ub)
		}
		if d >= sketchIdentity && ub-d > d/16 {
			t.Fatalf("sketchUpper(%v) = %v exceeds 1/16 relative error", d, ub)
		}
	}
}

// TestSketchOrderInvariant: the same multiset of observations yields
// identical sketch state regardless of arrival order — the property that
// makes quantiles byte-comparable across shard counts.
func TestSketchOrderInvariant(t *testing.T) {
	var fwd, rev Sketch
	for i := 1; i <= 1000; i++ {
		fwd.Observe(time.Duration(i) * time.Millisecond)
	}
	for i := 1000; i >= 1; i-- {
		rev.Observe(time.Duration(i) * time.Millisecond)
	}
	if !reflect.DeepEqual(fwd, rev) {
		t.Fatal("sketch state depends on observation order")
	}
}

// TestSketchMergeExact: merge(sketch(A), sketch(B)) == sketch(A ∪ B),
// exactly — the mergeability contract per-shard rollups need.
func TestSketchMergeExact(t *testing.T) {
	var whole, a, b Sketch
	for i := 1; i <= 400; i++ {
		d := time.Duration(i) * 137 * time.Microsecond
		whole.Observe(d)
		if i%2 == 0 {
			a.Observe(d)
		} else {
			b.Observe(d)
		}
	}
	a.Merge(&b)
	if !reflect.DeepEqual(whole, a) {
		t.Fatal("merged sketch differs from the directly-observed union")
	}
}

// TestSketchQuantileBounds: quantile answers are upper bounds within 1/16
// relative error, and q=1 returns the exact maximum.
func TestSketchQuantileBounds(t *testing.T) {
	var s Sketch
	for i := 1; i <= 1000; i++ {
		s.Observe(time.Duration(i) * time.Millisecond)
	}
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99} {
		exact := time.Duration(int(q*1000+0.9999)) * time.Millisecond // nearest rank
		got := s.Quantile(q)
		if got < exact {
			t.Errorf("Quantile(%v) = %v below the exact value %v", q, got, exact)
		}
		if got-exact > exact/16 {
			t.Errorf("Quantile(%v) = %v exceeds 1/16 error vs %v", q, got, exact)
		}
	}
	if got := s.Quantile(1); got != 1000*time.Millisecond {
		t.Errorf("Quantile(1) = %v, want the exact max 1s", got)
	}
	if s.Count() != 1000 || s.Max() != 1000*time.Millisecond {
		t.Errorf("count/max = %d/%v", s.Count(), s.Max())
	}
}

// TestSketchEdgeValues: zero, negative (clamped), and near-overflow
// durations must not panic or return nonsense.
func TestSketchEdgeValues(t *testing.T) {
	var s Sketch
	s.Observe(0)
	s.Observe(-5 * time.Second) // clamps to bucket 0
	if s.Count() != 2 || s.Max() != 0 {
		t.Fatalf("count/max = %d/%v", s.Count(), s.Max())
	}
	if got := s.Quantile(0.5); got != 0 {
		t.Fatalf("Quantile over zero/negative = %v, want 0", got)
	}
	huge := time.Duration(1<<62 + 12345) // top octave: upper bound would overflow
	s.Observe(huge)
	if got := s.Quantile(1); got != huge {
		t.Fatalf("top-octave quantile = %v, want clamp to max %v", got, huge)
	}

	var nilSketch *Sketch
	nilSketch.Observe(time.Second)
	nilSketch.Merge(&s)
	if nilSketch.Count() != 0 || nilSketch.Quantile(0.5) != 0 || nilSketch.Max() != 0 || nilSketch.Sum() != 0 {
		t.Fatal("nil sketch is not inert")
	}
}
