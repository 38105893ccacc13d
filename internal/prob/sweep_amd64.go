package prob

// useAVX2 reports whether sweep hands its full four-entry blocks to
// sweepAVX2. It is set once, from the CPU's own report; tests flip it to
// run the portable loop on the same inputs.
var useAVX2 = cpuHasAVX2()

// sweepAVX2 applies one user's step of the recurrence to the top
// (len(w)−1)/4 four-entry blocks of w, from the top down: each lane sets
// w[j] = flush(w[j]·q + w[j−1]·p) with the same two rounded products,
// one rounded sum and one flush as the scalar step, and each block loads
// w[j−1..j+3] before it stores w[j..j+3]. The entries below the blocks,
// w[0] among them, are left for the caller.
//
//go:noescape
func sweepAVX2(w []float64, p, q float64)

// cpuid returns the registers CPUID reports for a leaf and subleaf.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low half of XCR0, the register states the operating
// system saves across context switches.
func xgetbv() uint32

// cpuHasAVX2 reports whether the CPU executes AVX2 and the operating
// system saves the YMM registers: CPUID leaf 1 for AVX and OSXSAVE, XCR0
// for the XMM and YMM states, CPUID leaf 7 for AVX2.
func cpuHasAVX2() bool {
	const (
		osxsave = 1 << 27
		avx     = 1 << 28
		xmmYmm  = 1<<1 | 1<<2
		avx2    = 1 << 5
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xgetbv()&xmmYmm != xmmYmm {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}
