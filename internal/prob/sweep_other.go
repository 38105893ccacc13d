//go:build !amd64

package prob

// useAVX2 is false off amd64: sweep's portable loop does the whole sweep.
var useAVX2 = false

// sweepAVX2 exists only on amd64; sweep never calls it here.
func sweepAVX2(w []float64, p, q float64) {
	panic("prob: sweepAVX2 called off amd64")
}
