//go:build amd64.v3

package lrumodel

// Built for GOAMD64=v3 or later, the compiler may fuse the Go loop's
// multiply-adds, as the spec allows; the AVX2 tail never does, so the
// two may differ in the last bits.
func init() {
	vecUntestable = "GOAMD64=v3 or later: the compiler may fuse the Go loop's multiply-adds, which the AVX2 tail does not"
}
