package sim

// SplitMix64 is the splitmix64 mixing function: a seeded, allocation-free
// source of deterministic pseudo-random bits. Fault rolls, scheduling
// jitter, zygote tie-breaks and the cold-start scenario's function mix all
// draw from it, so runs replay exactly from their seed.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Jitter stretches or shrinks d by a deterministic pseudo-random factor in
// [1-pct, 1+pct], drawn by advancing the caller's sequence number *seq,
// modeling scheduling noise while keeping runs reproducible.
func Jitter(d Duration, pct float64, seq *uint64) Duration {
	if pct <= 0 || d <= 0 {
		return d
	}
	*seq++
	frac := float64(SplitMix64(*seq)%2001)/1000 - 1 // [-1, 1]
	return Duration(float64(d) * (1 + pct*frac))
}

// FNVOffset is the 64-bit FNV-1a offset basis: the hash of no input.
const FNVOffset uint64 = 14695981039346656037

// FNVMix folds v into the FNV-1a hash h as one unit; one call per byte is
// plain FNV-1a, and the event digest folds whole words.
func FNVMix(h, v uint64) uint64 { return (h ^ v) * 1099511628211 }

// FNVBytes folds each byte of b into h, without hash/fnv's allocations.
func FNVBytes[T ~string | ~[]byte](h uint64, b T) uint64 {
	for i := 0; i < len(b); i++ {
		h = FNVMix(h, uint64(b[i]))
	}
	return h
}
