package compiler

// MaskStream is a splitmix64 stream: the deterministic source of
// per-execution masks, scrub words and shuffle permutations. Self-contained
// so mask material never depends on library PRNG internals, and shared by
// every harness (desprog, kernels) so a given seed names one mask stream.
type MaskStream struct{ s uint64 }

// NewMaskStream starts a stream at the given seed.
func NewMaskStream(seed int64) *MaskStream {
	return &MaskStream{s: uint64(seed)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03}
}

// Next64 returns the next 64-bit word of the stream.
func (r *MaskStream) Next64() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Next32 returns the next 32-bit word of the stream.
func (r *MaskStream) Next32() uint32 { return uint32(r.Next64() >> 32) }

// Perm returns a uniform random permutation of 0..n-1 (Fisher–Yates).
func (r *MaskStream) Perm(n int) []uint32 {
	p := make([]uint32, n)
	for i := range p {
		p[i] = uint32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := int(r.Next64() % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}
