//go:build !amd64

package lrumodel

// useAVX2 is false off amd64: hitRatioExact runs the Go loop alone.
const useAVX2 = false

func seriesTailAVX2(q []float64, pSite, K, acc float64) float64 {
	panic("lrumodel: seriesTailAVX2 called without AVX2")
}
