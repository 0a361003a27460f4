package attrib

// AllStages returns the stages in canonical presentation order.
func AllStages() []Stage {
	out := make([]Stage, NumStages)
	copy(out, stageOrder[:])
	return out
}
