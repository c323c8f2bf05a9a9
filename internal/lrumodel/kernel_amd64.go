package lrumodel

// useAVX2 reports whether hitRatioExact sends its short-series tail
// through seriesTailAVX2: the CPU has AVX2 and the OS saves the YMM
// registers. It is decided once, at start-up.
var useAVX2 = func() bool {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const xmmYMMState = 1<<1 | 1<<2
	if xcr0, _ := xgetbv(); xcr0&xmmYMMState != xmmYMMState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}()

// vecConsts holds the constants of hitRatioExact's 5-term series and of
// oneMinusExp, each repeated across a 256-bit row, in the order
// kernel_amd64.s reads them. They are written as the same constant
// expressions as in kernel.go, so both paths round them to the same
// float64 values.
var vecConsts = func() (c [15][4]float64) {
	for i, v := range [...]float64{
		1.0 / 5, 1.0 / 4, 1.0 / 3, 1.0 / 2, 1, // the series, innermost first
		1 / expStep, 0.5, expStep, // n and r
		1.0 / 720, 1.0 / 120, 1.0 / 24, 1.0 / 6, 1.0 / 2, // e^r − 1, innermost first
		expFloor, expTableSize,
	} {
		c[i] = [4]float64{v, v, v, v}
	}
	return c
}()

// seriesTailAVX2 adds the terms of Equation (1) for the ranks q, all with
// pSite·q < 2⁻¹³ and len(q) a multiple of 4, to acc and returns the sum.
// Each group of four ranks runs the Go loop's operations lane by lane
// and the four products join acc in rank order, so the result has the
// Go loop's bits. pSite·q must be finite and K > 0 and finite.
//
//go:noescape
func seriesTailAVX2(q []float64, pSite, K, acc float64) float64

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
