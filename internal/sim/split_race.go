//go:build race

package sim

// splitMin is 0 under the race detector, so every windowed round with
// several workers goes to the worker goroutines and race-enabled test runs
// keep exercising them (see split.go for the normal threshold).
const splitMin = 0
