package metrics

// Merge appends all of other's samples into r. Other is unchanged; merging
// a nil or empty recorder is a no-op.
func (r *Recorder) Merge(other *Recorder) {
	if other == nil || len(other.samples) == 0 {
		return
	}
	r.samples = append(r.samples, other.samples...)
	r.sorted = false
}
