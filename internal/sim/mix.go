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
